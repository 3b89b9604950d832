// Package jsonread reads JSON documents into Go values in one pass, without
// reflection, and accepts exactly what encoding/json accepts when it decodes
// the same document into the equivalent Go types: the same grammar and
// nesting limit, case-insensitive keys matched as bytes.EqualFold matches
// them, escaped keys, the last of duplicate keys winning (into the elements
// an earlier array left behind, as encoding/json reuses them), null leaving
// strings and structs alone and clearing slices and maps, and invalid UTF-8
// in strings read as U+FFFD.
//
// A Reader only decides: a document it rejects is one encoding/json would
// reject too, and callers take the error text from encoding/json on the same
// bytes. Rejection is sticky: after the first failure every read is a no-op
// and every loop ends, so schema code needs no error plumbing.
package jsonread

import (
	"bytes"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Reader reads one top-level JSON value from a byte slice.
type Reader struct {
	data   []byte
	off    int
	depth  int
	failed bool
	// strict selects json.Decoder with DisallowUnknownFields, the server's
	// request decoder: an unknown key rejects the document and bytes after
	// the top-level value are never read. Otherwise the rules are
	// json.Unmarshal's: unknown keys are skipped, and only whitespace may
	// follow the value.
	strict bool
	strs   interner
	buf    []byte // unquoted bytes of the last escaped string
	keyBuf []byte // the last folded key
}

// New returns a reader of data; strict is described on Reader.
func New(data []byte, strict bool) *Reader {
	return &Reader{data: data, strict: strict}
}

// End finishes the document and reports whether it was accepted.
func (r *Reader) End() bool {
	if !r.failed && !r.strict {
		r.space()
		if r.off != len(r.data) {
			r.failed = true
		}
	}
	return !r.failed
}

func (r *Reader) space() {
	for r.off < len(r.data) {
		switch r.data[r.off] {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return
		}
	}
}

// peek returns the first byte of the next value, or 0 at the end of the
// input and after a failure.
func (r *Reader) peek() byte {
	if r.failed {
		return 0
	}
	r.space()
	if r.off == len(r.data) {
		return 0
	}
	return r.data[r.off]
}

// null consumes a null literal if one is next.
func (r *Reader) null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return !r.failed
}

func (r *Reader) literal(lit string) {
	if !bytes.HasPrefix(r.data[r.off:], []byte(lit)) {
		r.failed = true
		return
	}
	r.off += len(lit)
}

// enter consumes the opening bracket of an object or array.
func (r *Reader) enter(open byte) bool {
	if r.peek() != open {
		return false
	}
	r.off++
	r.depth++
	if r.depth > maxDepth {
		r.failed = true
		return false
	}
	return true
}

// next advances past the separator before member i of the container being
// read, or past its closing bracket, and reports whether a member follows.
func (r *Reader) next(i int, close byte) bool {
	c := r.peek()
	switch {
	case r.failed:
		return false
	case c == close:
		r.off++
		r.depth--
		return false
	case i == 0:
		return true
	case c == ',':
		r.off++
		return true
	}
	r.failed = true
	return false
}

// key reads member i's key and its colon, and returns the unquoted key, or
// false at the closing brace.
func (r *Reader) key(i int) ([]byte, bool) {
	if !r.next(i, '}') {
		return nil, false
	}
	if r.peek() != '"' {
		r.failed = true
		return nil, false
	}
	k := r.str()
	if r.peek() != ':' {
		r.failed = true
		return nil, false
	}
	r.off++
	return k, true
}

// Struct reads the next value as encoding/json decodes into a struct: field
// is called with each key, folded so that it can be compared with the
// lower-case field names, reads the value when the key names a field and
// reports whether it did; other keys are unknown fields. null leaves the
// destination as it is, and any other kind of value rejects the document.
func (r *Reader) Struct(field func(key []byte) bool) {
	if r.null() {
		return
	}
	if !r.enter('{') {
		r.failed = true
		return
	}
	for i := 0; ; i++ {
		k, ok := r.key(i)
		if !ok {
			return
		}
		if !field(r.fold(k)) {
			if r.strict {
				r.failed = true
				return
			}
			r.skip()
		}
	}
}

// fold folds a key so that it equals a field name written in lower-case
// ASCII exactly when bytes.EqualFold matches the two, as encoding/json
// matches keys to fields: ASCII letters are lowered, and the two non-ASCII
// runes whose case folds reach ASCII, the long s (U+017F) and the Kelvin
// sign (U+212A), become 's' and 'k'. Any other non-ASCII rune is kept, and
// can match no ASCII name.
func (r *Reader) fold(k []byte) []byte {
	for i, c := range k {
		if 'A' <= c && c <= 'Z' || c >= utf8.RuneSelf {
			return r.foldFrom(k, i)
		}
	}
	return k
}

func (r *Reader) foldFrom(k []byte, i int) []byte {
	b := append(r.keyBuf[:0], k[:i]...)
	for i < len(k) {
		c := k[i]
		switch {
		case 'A' <= c && c <= 'Z':
			b = append(b, c+'a'-'A')
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(k[i:])
			switch rr {
			case '\u017f':
				b = append(b, 's')
			case '\u212a':
				b = append(b, 'k')
			default:
				b = append(b, k[i:i+size]...)
			}
			i += size
		}
	}
	r.keyBuf = b
	return b
}

// Slice reads the next value as encoding/json decodes into a slice: elem
// reads element i into s[i], which keeps whatever an earlier array decoded
// into the same slot; null yields nil, and any value but an array rejects
// the document.
func Slice[T any](r *Reader, s []T, elem func(*T)) []T {
	if r.null() {
		return nil
	}
	if !r.enter('[') {
		r.failed = true
		return s
	}
	i := 0
	for ; r.next(i, ']'); i++ {
		if i >= len(s) {
			switch {
			case i < cap(s):
				s = s[:i+1]
			case cap(s) == 0:
				// Most arrays of a model document hold a few to a few
				// dozen elements: start at 8 rather than doubling from 1.
				s = make([]T, 1, 8)
			default:
				var zero T
				s = append(s, zero)
			}
		}
		elem(&s[i])
	}
	if i == 0 {
		return []T{}
	}
	return s[:i]
}

// String reads the next value into a string-kinded destination: null leaves
// it as it is, and any value but a string rejects the document. Equal
// strings of one document share one allocation.
func String[S ~string](r *Reader, dst *S) {
	switch r.peek() {
	case '"':
		*dst = S(r.intern(r.str()))
	case 'n':
		r.null()
	default:
		r.failed = true
	}
}

// StringMap reads the next value as encoding/json decodes into a
// map[string]string: keys are added to m (made when nil), a null value
// stores "", null yields a nil map, and any value but an object rejects the
// document.
func (r *Reader) StringMap(m map[string]string) map[string]string {
	if r.null() {
		return nil
	}
	if !r.enter('{') {
		r.failed = true
		return m
	}
	if m == nil {
		m = make(map[string]string)
	}
	for i := 0; ; i++ {
		k, ok := r.key(i)
		if !ok {
			return m
		}
		key := r.intern(k)
		var v string
		String(r, &v)
		m[key] = v
	}
}

// Int reads the next value into an int: null leaves it as it is, and only a
// number strconv.ParseInt takes in base 10 is accepted.
func (r *Reader) Int(dst *int) {
	switch c := r.peek(); {
	case c == 'n':
		r.null()
	case c == '-' || '0' <= c && c <= '9':
		n, err := strconv.ParseInt(string(r.number()), 10, 64)
		if err != nil || int64(int(n)) != n {
			r.failed = true
			return
		}
		*dst = int(n)
	default:
		r.failed = true
	}
}

// Offset returns the reader's position: the offset in the input of the
// first byte it has not read. Between two values of an array that may be
// whitespace before the next value.
func (r *Reader) Offset() int { return r.off }

// Raw reads past the next value and returns its bytes, a sub-slice of the
// input, as encoding/json fills a json.RawMessage.
func (r *Reader) Raw() []byte {
	r.space()
	start := r.off
	r.skip()
	if r.failed {
		return nil
	}
	return r.data[start:r.off]
}

// skip reads past the next value, whatever its kind, checking its syntax.
func (r *Reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		r.enter('{')
		for i := 0; ; i++ {
			if _, ok := r.key(i); !ok {
				return
			}
			r.skip()
		}
	case c == '[':
		r.enter('[')
		for i := 0; r.next(i, ']'); i++ {
			r.skip()
		}
	case c == '"':
		r.str()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.failed = true
	}
}

func (r *Reader) intern(b []byte) string {
	if len(b) > 0 && len(r.strs.slots) == 0 {
		// A table of 256 slots suits a model document; a small input, such
		// as one object of it, starts with one slot per 32 bytes.
		r.strs.slots = make([]string, min(256, max(16, 1<<bits.Len(uint(len(r.data)/32)))))
	}
	return r.strs.get(b)
}

// interner hands out one string per distinct byte sequence: an
// open-addressing table of FNV-1a hashes, cheaper per document than a Go map.
// Its table is made on first use, with a power-of-two length.
type interner struct {
	slots []string // power-of-two length; "" marks a free slot
	n     int
}

func (t *interner) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	mask := uint32(len(t.slots) - 1)
	for i := fnv(b) & mask; ; i = (i + 1) & mask {
		switch s := t.slots[i]; {
		case s == "":
			s = string(b)
			t.slots[i] = s
			if t.n++; 2*t.n > len(t.slots) {
				t.grow()
			}
			return s
		case s == string(b):
			return s
		}
	}
}

func (t *interner) grow() {
	old := t.slots
	t.slots = make([]string, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s == "" {
			continue
		}
		i := fnv(s) & mask
		for t.slots[i] != "" {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

func fnv[T string | []byte](b T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * 16777619
	}
	return h
}

// number reads a number literal: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *Reader) number() []byte {
	d, start := r.data, r.off
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		r.failed = true
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || !isDigit(d[i]) {
			r.failed = true
			return nil
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			r.failed = true
			return nil
		}
		i = digits(d, i)
	}
	r.off = i
	return d[start:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// str reads a string literal and returns its unquoted bytes: a sub-slice of
// the input when it holds no escape and no invalid UTF-8, otherwise r.buf,
// valid until the next escaped string.
func (r *Reader) str() []byte {
	d := r.data
	start := r.off + 1
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			return d[start:i]
		case c == '\\' || c < ' ':
			return r.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				return r.unquote(start, i)
			}
			i += size
		}
	}
	r.failed = true
	return nil
}

// unquote finishes a string literal from d[i], the first byte needing more
// than a copy, with encoding/json's rules: the escapes its scanner accepts,
// \u surrogate pairs combined, and lone surrogates and invalid UTF-8 read as
// U+FFFD.
func (r *Reader) unquote(start, i int) []byte {
	d := r.data
	b := append(r.buf[:0], d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			r.off = i + 1
			r.buf = b
			return b
		case c < ' ':
			r.failed = true
			return nil
		case c == '\\':
			if i+1 == len(d) {
				r.failed = true
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(d[i+2:])
				if rr < 0 {
					r.failed = true
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if len(d)-i >= 2 && d[i] == '\\' && d[i+1] == 'u' {
						if rr1 := hex4(d[i+2:]); rr1 >= 0 {
							if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
								b = utf8.AppendRune(b, dec)
								i += 6
								continue
							}
						}
					}
					rr = utf8.RuneError
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.failed = true
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.failed = true
	return nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(d []byte) rune {
	if len(d) < 4 {
		return -1
	}
	var rr rune
	for _, c := range d[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr*16 + rune(c)
	}
	return rr
}
