package phrasedict

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildAndLookup(t *testing.T) {
	phrases := []string{"economic minister", "reserves", "trade reserves"}
	d, err := Build(phrases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Width() != DefaultWidth {
		t.Fatalf("Width = %d, want %d", d.Width(), DefaultWidth)
	}
	for i, p := range phrases {
		got, err := d.Phrase(PhraseID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("Phrase(%d) = %q, want %q", i, got, p)
		}
		id, ok, err := d.ID(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || id != PhraseID(i) {
			t.Fatalf("ID(%q) = %d,%v", p, id, ok)
		}
	}
	if _, ok, err := d.ID("absent phrase"); err != nil || ok {
		t.Fatal("ID of absent phrase should be !ok")
	}
	if _, err := d.Phrase(3); err == nil {
		t.Fatal("Phrase(3) out of range should error")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	cases := []struct {
		name    string
		phrases []string
		width   int
	}{
		{"too long", []string{strings.Repeat("x", 51)}, 50},
		{"empty phrase", []string{""}, 50},
		{"duplicate", []string{"a", "a"}, 50},
		{"embedded NUL", []string{"a\x00b"}, 50},
		{"negative width", []string{"a"}, -1},
	}
	for _, c := range cases {
		if _, err := Build(c.phrases, c.width); err == nil {
			t.Errorf("%s: Build should fail", c.name)
		}
	}
}

func TestExactWidthPhrase(t *testing.T) {
	p := strings.Repeat("y", 50)
	d, err := Build([]string{p}, 50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Phrase(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("exact-width phrase mangled: %q", got)
	}
}

func TestSizeBytes(t *testing.T) {
	d, err := Build([]string{"a", "b", "c"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeBytes() != 30 {
		t.Fatalf("SizeBytes = %d, want 30", d.SizeBytes())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	phrases := []string{"alpha", "beta gamma", "delta epsilon zeta"}
	d, err := Build(phrases, 32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(headerSize+3*32) {
		t.Fatalf("WriteTo wrote %d bytes, want %d", n, headerSize+3*32)
	}
	d2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() || d2.Width() != d.Width() {
		t.Fatal("round-trip changed shape")
	}
	for i, p := range phrases {
		if got := d2.MustPhrase(PhraseID(i)); got != p {
			t.Fatalf("round-trip Phrase(%d) = %q, want %q", i, got, p)
		}
		if id, ok, err := d2.ID(p); err != nil || !ok || id != PhraseID(i) {
			t.Fatalf("round-trip ID(%q) = %d,%v (%v)", p, id, ok, err)
		}
	}
}

func TestReadFromRejectsBadMagic(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("NOTADICTxxxxxxxx"))); err == nil {
		t.Fatal("ReadFrom should reject bad magic")
	}
}

func TestReadFromRejectsTruncated(t *testing.T) {
	d, _ := Build([]string{"one", "two"}, 16)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, headerSize - 1, headerSize + 5} {
		if _, err := ReadFrom(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("ReadFrom of %d-byte prefix should fail", cut)
		}
	}
}

// Property: for arbitrary unique printable phrase sets, build+serialize+
// reload preserves all ID<->phrase mappings.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint32, count uint8) bool {
		n := int(count)%20 + 1
		phrases := make([]string, n)
		for i := range phrases {
			phrases[i] = fmt.Sprintf("phrase %d %d", seed, i)
		}
		d, err := Build(phrases, 0)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return false
		}
		d2, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		for i, p := range phrases {
			if d2.MustPhrase(PhraseID(i)) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
