package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes g in a simple text format:
//
//	# comment lines start with '#'
//	n m
//	u v        (one edge per line, 0-based indices)
//
// The format is read back by ReadEdgeList.  g must be finalized.
func WriteEdgeList(w io.Writer, g *Graph) error {
	if !g.finalized {
		return errors.New("graph: WriteEdgeList: graph is not finalized; call Finalize first")
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a graph in the format produced by WriteEdgeList.
// Blank lines and lines starting with '#' or '%' are ignored.
//
// The parser is strict: every non-comment line must be exactly the header
// ("n" or "n m") or exactly one edge ("u v") — a line with extra or missing
// fields, a non-numeric field, an out-of-range endpoint or a self-loop fails
// with an error naming the offending 1-based line.  Nothing is silently
// skipped.  The header's edge count m is validated as a non-negative integer
// but otherwise advisory: duplicate edge lines (in either orientation)
// collapse to a single undirected edge at finalization, so the parsed graph
// may have fewer edges than the header declares.  Self-loops are never
// accepted (the library models simple graphs).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimit(r, 0)
}

// ReadEdgeListLimit is ReadEdgeList with a bound on the declared vertex
// count (0 = unlimited).  The bound is checked before the O(n) adjacency
// table is allocated, so servers can reject a tiny document that declares an
// enormous n without paying for it.
func ReadEdgeListLimit(r io.Reader, maxVertices int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) == 0 || len(fields) > 2 {
				return nil, fmt.Errorf("graph: line %d: expected header 'n [m]', got %d fields", line, len(fields))
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[0])
			}
			if len(fields) == 2 {
				// The declared edge count is advisory (duplicates collapse at
				// finalization) but must still be a well-formed count — a
				// malformed header should fail loudly, not parse as garbage.
				if m, err := strconv.Atoi(fields[1]); err != nil || m < 0 {
					return nil, fmt.Errorf("graph: line %d: bad edge count %q", line, fields[1])
				}
			}
			if maxVertices > 0 && n > maxVertices {
				return nil, fmt.Errorf("graph: line %d: vertex count %d exceeds the limit %d", line, n, maxVertices)
			}
			g = New(n)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: expected edge 'u v', got %d fields", line, len(fields))
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
		}
		// Lazy insert: duplicates collapse at Finalize, so ingestion is O(m)
		// instead of paying a membership probe per line.
		if err := g.AddEdgeLazy(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	g.Finalize()
	return g, nil
}
