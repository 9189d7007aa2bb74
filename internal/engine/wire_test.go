package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"bedom/internal/gen"
)

// referenceJSON is what AppendJSON must write: encoding/json's encoding of
// r through its struct tags, HTML escaping off, without the newline.
func referenceJSON(t *testing.T, r *Response, omitSets bool) []byte {
	t.Helper()
	if omitSets {
		trimmed := *r
		trimmed.Set, trimmed.DomSet = nil, nil
		r = &trimmed
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// Flags of FuzzResponseJSON: which optional parts a fuzzed response has.
const (
	fuzzOmitSets = 1 << iota
	fuzzEmptySet // a non-nil empty Set when there are no members
	fuzzDomSet
	fuzzCached      // Set and DomSet are a cached answer's slices
	fuzzReplaced    // ... or Set is a copy that replaced the cached slice
	fuzzReplacedDom // ... or DomSet is
	fuzzClusters
	fuzzCacheHit
)

// FuzzResponseJSON checks AppendJSON against encoding/json on arbitrary
// responses: any bytes in the strings, any finite ElapsedMS, any int
// fields, nil, empty and non-empty sets with and without omitSets, a set
// and a dom_set served from the cache or replaced by the caller, and a
// clusters map.
func FuzzResponseJSON(f *testing.F) {
	all := uint8(fuzzDomSet | fuzzCached | fuzzClusters | fuzzCacheHit)
	ints := binary.LittleEndian.AppendUint64(nil, 3)
	ints = binary.LittleEndian.AppendUint64(ints, math.MaxUint64) // -1
	f.Add("g", "domset", "paper", 2.5, ints, []byte{1, 0, 2, 0, 40, 1}, all)
	f.Add("", "cover", "", 0.0, []byte{}, []byte{}, uint8(0))
	f.Add("", "cds", "", 0.0, []byte{}, []byte{}, uint8(fuzzEmptySet|fuzzDomSet))
	f.Add("g<&>\"\\é\u2028\u2029\x00\x7f\xff", "dist-domset", "kubsv", math.Copysign(0, -1), ints, []byte{9, 0}, uint8(fuzzOmitSets|fuzzCached))
	f.Add("g", "domset", "dvorak", 1e-7, ints, []byte{200, 255, 7, 0}, uint8(fuzzReplaced|fuzzCached))
	f.Add("g", "cds", "", 3.25, ints, []byte{1, 0, 2, 0, 3, 0, 4, 0}, uint8(fuzzDomSet|fuzzCached|fuzzCacheHit))
	f.Add("g", "cds", "", 0.5, ints, []byte{1, 0, 2, 0, 3, 0, 4, 0}, uint8(fuzzDomSet|fuzzCached|fuzzReplacedDom))
	f.Add("g", "domset", "greedy", 1e21, []byte{}, []byte{5, 0}, uint8(fuzzClusters|fuzzOmitSets))
	f.Add("g", "dist-cds", "", -123456.789, []byte{}, []byte{}, uint8(fuzzDomSet))
	f.Add("g", "domset", "", 5e-324, []byte{}, []byte{}, uint8(0))
	f.Add("g", "domset", "", math.MaxFloat64, []byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, graph, kind, solverName string, elapsed float64, ints, members []byte, flags uint8) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			t.Skip("encoding/json rejects a non-finite float")
		}
		num := func(i int) int64 {
			if len(ints) < 8*(i+1) {
				return 0
			}
			return int64(binary.LittleEndian.Uint64(ints[8*i:]))
		}
		var set []int
		if flags&fuzzEmptySet != 0 {
			set = []int{}
		}
		for i := 0; i+1 < len(members); i += 2 {
			set = append(set, int(int16(binary.LittleEndian.Uint16(members[i:]))))
		}
		r := &Response{
			Graph: graph, Kind: Kind(kind), R: int(num(0)), Solver: solverName,
			Set: set, Size: int(num(1)), LowerBound: int(num(2)), Wcol: int(num(3)),
			CoverDegree: int(num(4)), CoverMaxRadius: int(num(5)),
			Rounds: int(num(6)), Messages: num(7), MaxMessageWords: int(num(8)),
			CacheHit: flags&fuzzCacheHit != 0, ElapsedMS: elapsed,
		}
		if flags&fuzzDomSet != 0 {
			r.DomSet = set[:len(set)/2]
		}
		if flags&fuzzCached != 0 {
			r.answer = &answer{resp: Response{Set: r.Set, DomSet: r.DomSet}}
			if flags&fuzzReplaced != 0 {
				r.Set = slices.Clone(r.Set)
			}
			if flags&fuzzReplacedDom != 0 {
				r.DomSet = slices.Clone(r.DomSet)
			}
		}
		if flags&fuzzClusters != 0 {
			r.Clusters = make(map[int][]int)
			for i, v := range set {
				r.Clusters[v] = set[:i] // the first key's value is empty
			}
			r.Clusters[-1] = nil
		}
		omit := flags&fuzzOmitSets != 0
		want := referenceJSON(t, r, omit)
		// Twice: the second call of a cached response copies in the arrays
		// the first one encoded.
		for range 2 {
			if got := r.AppendJSON([]byte("prefix"), omit); !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("AppendJSON:\n got %s\nwant prefix%s", got, want)
			}
		}
	})
}

// TestAppendJSONCachedSet: responses served from one answer cache entry
// share its slices, AppendJSON writes the set and dom_set arrays the entry
// encoded once instead of encoding them again, and a caller that replaces
// Set gets its own set written.  A query that nobody encodes leaves the
// entry without arrays, and a cover answer never has any.
func TestAppendJSONCachedSet(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("grid", gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	// shares reports whether s is the cached slice, or both are empty.
	shares := func(cached, s []int) bool {
		return len(cached) == 0 && len(s) == 0 || len(s) > 0 && sameSlice(cached, s)
	}
	for _, kind := range []Kind{KindDominatingSet, KindConnectedDominatingSet, KindCover} {
		do := func() *Response {
			t.Helper()
			resp, err := e.Do(context.Background(), Request{Graph: "grid", Kind: kind, R: 1, IncludeClusters: true})
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		cold, warm := do(), do()
		a := cold.answer
		if a == nil || warm.answer != a || !shares(a.resp.Set, warm.Set) || !shares(a.resp.DomSet, warm.DomSet) {
			t.Fatalf("%s: a cache hit does not share the cached answer", kind)
		}
		if a.set.b != nil || a.domSet.b != nil {
			t.Fatalf("%s: the sets were encoded before any response needed them", kind)
		}
		if got, want := cold.AppendJSON(nil, false), referenceJSON(t, cold, false); !bytes.Equal(got, want) {
			t.Fatalf("%s AppendJSON:\n got %s\nwant %s", kind, got, want)
		}
		if kind == KindCover {
			if a.set.b != nil || a.domSet.b != nil {
				t.Fatalf("cover answer encoded arrays %s %s", a.set.b, a.domSet.b)
			}
			if got, want := warm.AppendJSON(nil, false), referenceJSON(t, warm, false); !bytes.Equal(got, want) {
				t.Fatalf("warm cover AppendJSON:\n got %s\nwant %s", got, want)
			}
			continue
		}
		if !bytes.Equal(a.set.b, appendInts(nil, a.resp.Set)) {
			t.Fatalf("%s: cached set array %s", kind, a.set.b)
		}
		// Markers in the cached arrays show which bytes the next call
		// writes.
		a.set.b = []byte("[-7]")
		wantDom := ""
		if kind == KindConnectedDominatingSet {
			if !bytes.Equal(a.domSet.b, appendInts(nil, a.resp.DomSet)) {
				t.Fatalf("cached dom_set array %s", a.domSet.b)
			}
			a.domSet.b = []byte("[-8]")
			wantDom = `"dom_set":[-8],`
		}
		if got := warm.AppendJSON(nil, false); !bytes.Contains(got, []byte(`"set":[-7],`)) || !bytes.Contains(got, []byte(wantDom)) {
			t.Fatalf("%s: a hit re-encoded its sets: %s", kind, got)
		}
		warm.Set = slices.Clone(warm.Set)
		warm.DomSet = slices.Clone(warm.DomSet)
		if got, want := warm.AppendJSON(nil, false), referenceJSON(t, warm, false); !bytes.Equal(got, want) {
			t.Fatalf("%s replaced sets:\n got %s\nwant %s", kind, got, want)
		}
	}
}
