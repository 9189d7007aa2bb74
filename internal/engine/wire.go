package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends r as a JSON object to dst and returns the extended
// slice.  The bytes are exactly what encoding/json writes for r with HTML
// escaping off, minus the encoder's trailing newline: the struct tags are
// the reference, with the same field order and omitempty rules.  omitSets
// leaves out Set and DomSet.  A Set that is still the slice of a cached
// domset result is copied in from the JSON array encoded once per cache
// entry; any other set is encoded here.  ElapsedMS must be finite.
func (r *Response) AppendJSON(dst []byte, omitSets bool) []byte {
	if r.Graph != "" {
		dst = append(dst, `{"graph":`...)
		dst = appendString(dst, r.Graph)
		dst = append(dst, `,"kind":`...)
	} else {
		dst = append(dst, `{"kind":`...)
	}
	dst = appendString(dst, string(r.Kind))
	dst = append(dst, `,"r":`...)
	dst = strconv.AppendInt(dst, int64(r.R), 10)
	if r.Solver != "" {
		dst = append(dst, `,"solver":`...)
		dst = appendString(dst, r.Solver)
	}
	if !omitSets && len(r.Set) > 0 {
		dst = append(dst, `,"set":`...)
		if a := r.answer; a != nil && sameSlice(a.resp.Set, r.Set) {
			dst = appendArray(dst, a.set.bytes(r.Set))
		} else {
			dst = appendInts(dst, r.Set)
		}
	}
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, int64(r.Size), 10)
	dst = appendNonZero(dst, `,"lower_bound":`, int64(r.LowerBound))
	dst = appendNonZero(dst, `,"wcol":`, int64(r.Wcol))
	if !omitSets && len(r.DomSet) > 0 {
		dst = append(dst, `,"dom_set":`...)
		if a := r.answer; a != nil && sameSlice(a.resp.DomSet, r.DomSet) {
			dst = appendArray(dst, a.domSet.bytes(r.DomSet))
		} else {
			dst = appendInts(dst, r.DomSet)
		}
	}
	dst = appendNonZero(dst, `,"cover_degree":`, int64(r.CoverDegree))
	dst = appendNonZero(dst, `,"cover_max_radius":`, int64(r.CoverMaxRadius))
	if len(r.Clusters) > 0 {
		// encoding/json sorts the integer keys as strings.
		dst = append(dst, `,"clusters":`...)
		dst = appendEncoded(dst, r.Clusters)
	}
	dst = appendNonZero(dst, `,"rounds":`, int64(r.Rounds))
	dst = appendNonZero(dst, `,"messages":`, r.Messages)
	dst = appendNonZero(dst, `,"max_message_words":`, int64(r.MaxMessageWords))
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, r.CacheHit)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = appendFloat(dst, r.ElapsedMS)
	return append(dst, '}')
}

// sameSlice reports whether the non-empty slice s is the slice cached.
func sameSlice(cached, s []int) bool {
	return len(cached) == len(s) && &cached[0] == &s[0]
}

// appendArray appends an encoded array, with room for the fields after it
// so that they do not copy the array once more.
func appendArray(dst, arr []byte) []byte {
	return append(slices.Grow(dst, len(arr)+256), arr...)
}

// appendNonZero appends key and v unless v is 0 (an omitempty int field).
func appendNonZero(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendInts appends s as a JSON array.
func appendInts(dst []byte, s []int) []byte {
	dst = append(dst, '[')
	for i, v := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string.  Printable ASCII other than a
// quote or a backslash is written as it is; any other string goes through
// encoding/json, which escapes control bytes, rewrites U+2028, U+2029 and
// invalid UTF-8, and passes other non-ASCII text through.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			return appendEncoded(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEncoded appends v as encoding/json writes it with HTML escaping
// off.
func appendEncoded(dst []byte, v any) []byte {
	b := bytes.NewBuffer(dst)
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // a string or a map[int][]int always encodes
	out := b.Bytes()
	return out[:len(out)-1] // Encode's newline
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal form, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
