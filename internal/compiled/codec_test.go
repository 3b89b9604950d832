package compiled

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
)

// TestCodecRoundTrip encodes and decodes representative systems and demands
// an identical canonical JSON form, a stable content hash, and hash
// agreement between the file header and ModelHash.
func TestCodecRoundTrip(t *testing.T) {
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	abp, err := protocols.ABP()
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := randgen.Generate(randgen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sys  *cfsm.System
	}{
		{"figure1", fig},
		{"abp", abp},
		{"rand", rnd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := EncodeSystem(tc.sys)
			if !IsBinary(data) {
				t.Fatal("encoded model does not sniff as binary")
			}
			h, err := DecodeHeader(data)
			if err != nil {
				t.Fatalf("DecodeHeader: %v", err)
			}
			if h.Version != Version {
				t.Fatalf("header version %d, want %d", h.Version, Version)
			}
			if h.Hash != ModelHash(tc.sys) {
				t.Fatalf("header hash %s != ModelHash %s", h.Hash, ModelHash(tc.sys))
			}
			back, err := DecodeSystem(data)
			if err != nil {
				t.Fatalf("DecodeSystem: %v", err)
			}
			wantJSON, err := tc.sys.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := back.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("round trip changed the model:\nwant %s\ngot  %s", wantJSON, gotJSON)
			}
			if ModelHash(back) != ModelHash(tc.sys) {
				t.Fatal("round trip changed the content hash")
			}
			if again := EncodeSystem(tc.sys); !bytes.Equal(data, again) {
				t.Fatal("encoding is not deterministic")
			}
		})
	}
}

// rehash rebuilds a file around a (possibly tampered) payload so the content
// hash is consistent, isolating structural errors from hash errors.
func rehash(payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, 0)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// TestCodecRejectsCorruption walks the failure taxonomy: wrong magic,
// truncated header, unsupported version, flipped payload byte (hash
// mismatch), structurally truncated payload under a correct hash, and
// trailing bytes under a correct hash.
func TestCodecRejectsCorruption(t *testing.T) {
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeSystem(fig)
	payload := data[headerSize:]

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"json-not-binary", []byte(`{"machines":[]}`), ErrBadMagic},
		{"empty", nil, ErrBadMagic},
		{"magic-only", []byte(Magic), ErrTruncated},
		{"short-header", data[:headerSize-5], ErrTruncated},
		{"future-version", func() []byte {
			d := append([]byte(nil), data...)
			binary.LittleEndian.PutUint16(d[len(Magic):], Version+1)
			return d
		}(), ErrUnsupportedVersion},
		{"flipped-payload-byte", func() []byte {
			d := append([]byte(nil), data...)
			d[headerSize+7] ^= 0x40
			return d
		}(), ErrHashMismatch},
		{"flipped-hash-byte", func() []byte {
			d := append([]byte(nil), data...)
			d[len(Magic)+4] ^= 0x01
			return d
		}(), ErrHashMismatch},
		{"truncated-payload-rehashed", rehash(payload[:len(payload)-6]), ErrTruncated},
		{"half-payload-rehashed", rehash(payload[:len(payload)/2]), ErrTruncated},
		{"trailing-bytes-rehashed", rehash(append(append([]byte(nil), payload...), 1, 2, 3)), ErrTruncated},
		{"absurd-string-count", rehash(binary.LittleEndian.AppendUint32(nil, 1<<30)), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSystem(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeSystem = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCodecRejectsInvalidModel crafts a structurally well-formed file whose
// model violates the constructor's rules (initial state not declared) and
// checks that decoding runs the full validation.
func TestCodecRejectsInvalidModel(t *testing.T) {
	e := &enc{ids: map[string]uint32{}}
	for _, s := range []string{"A", "s0", "s1"} {
		e.ids[s] = uint32(len(e.strs))
		e.strs = append(e.strs, s)
	}
	var p enc
	p.ids = e.ids
	p.strs = e.strs
	p.u32(uint32(len(p.strs)))
	for _, s := range p.strs {
		p.u32(uint32(len(s)))
		p.buf = append(p.buf, s...)
	}
	p.u32(1)    // one machine
	p.str("A")  // name
	p.str("s1") // initial: NOT declared below
	p.u32(1)    // one state
	p.str("s0") // the only declared state
	p.u32(0)    // no transitions
	_, err := DecodeSystem(rehash(p.buf))
	if err == nil {
		t.Fatal("DecodeSystem accepted a model with an undeclared initial state")
	}
	for _, sentinel := range []error{ErrBadMagic, ErrUnsupportedVersion, ErrTruncated, ErrHashMismatch} {
		if errors.Is(err, sentinel) {
			t.Fatalf("model-rule failure misclassified as %v", err)
		}
	}
}

// FuzzDecodeSystem feeds hostile bytes to the binary model decoder, which
// backs POST /v1/models. Each input is decoded as given (exercising the
// header checks) and again re-hashed around its payload, so the structural
// parser is reached despite the content hash. Decoding must never panic,
// must fail only with a typed sentinel or a model-validation error, and an
// accepted system must survive an encode/decode round trip unchanged and get
// an engine, whatever its configuration count.
func FuzzDecodeSystem(f *testing.F) {
	for _, name := range []string{"figure1.json", "figure1-faulty.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		sys, err := cfsm.ParseSystem(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeSystem(sys))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= headerSize {
			inputs = append(inputs, rehash(data[headerSize:]))
		}
		for _, in := range inputs {
			sys, err := DecodeSystem(in)
			if err != nil {
				typed := errors.Is(err, ErrBadMagic) || errors.Is(err, ErrUnsupportedVersion) ||
					errors.Is(err, ErrTruncated) || errors.Is(err, ErrHashMismatch)
				if !typed && !strings.HasPrefix(err.Error(), "compiled: binary model fails validation: ") {
					t.Fatalf("DecodeSystem: untyped error %v", err)
				}
				continue
			}
			if _, err := NewEngine(sys); err != nil {
				t.Fatalf("NewEngine refused an accepted system: %v", err)
			}
			again, err := DecodeSystem(EncodeSystem(sys))
			if err != nil {
				t.Fatalf("re-decode of an accepted system: %v", err)
			}
			want, _ := sys.MarshalJSON()
			got, _ := again.MarshalJSON()
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip changed the system:\n got %s\nwant %s", got, want)
			}
		}
	})
}
