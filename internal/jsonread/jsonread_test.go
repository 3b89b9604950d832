package jsonread

import (
	"bytes"
	"testing"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// TestFoldMatchesEqualFold checks fold against bytes.EqualFold, the match
// encoding/json applies to keys, on every rune: a rune folds to an ASCII
// byte exactly when its case-fold orbit holds an ASCII character, and then
// to the lower-case form of it.
func TestFoldMatchesEqualFold(t *testing.T) {
	var r Reader
	for c := rune(0); c <= unicode.MaxRune; c++ {
		if utf16.IsSurrogate(c) {
			continue
		}
		b := utf8.AppendRune(nil, c)
		want := -1
		for f := c; ; {
			if f < utf8.RuneSelf {
				want = int(unicode.ToLower(f))
			}
			if f = unicode.SimpleFold(f); f == c {
				break
			}
		}
		got := r.fold(b)
		if want < 0 {
			if len(got) == 1 && got[0] < utf8.RuneSelf {
				t.Fatalf("%U folds to ASCII %q, but no case of it is ASCII", c, got)
			}
			continue
		}
		if !bytes.Equal(got, []byte{byte(want)}) || !bytes.EqualFold(b, got) {
			t.Fatalf("%U folds to %q, want %q", c, got, want)
		}
	}
	for key, want := range map[string]string{
		"SPECREF": "specref", "\u017fuite": "suite", "\u212aind": "kind", "\u00dcnknown": "\u00dcnknown",
	} {
		if got := string(r.fold([]byte(key))); got != want {
			t.Errorf("fold(%q) = %q, want %q", key, got, want)
		}
	}
}
