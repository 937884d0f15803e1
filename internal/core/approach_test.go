package core

import "testing"

// FuzzParseApproach checks the name table against New in both
// directions: every input ParseApproach accepts must construct, report
// its canonical name, and round-trip through String and the text
// (un)marshalers.
func FuzzParseApproach(f *testing.F) {
	for _, name := range ApproachNames() {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseApproach(s)
		if err != nil {
			return
		}
		p, err := New(a, Options{})
		if err != nil {
			t.Fatalf("ParseApproach(%q) = %v, but New failed: %v", s, a, err)
		}
		if p.Name() != a.String() {
			t.Errorf("New(%v).Name() = %q, want %q", a, p.Name(), a.String())
		}
		if back, err := ParseApproach(a.String()); err != nil || back != a {
			t.Errorf("ParseApproach(%q) = %v, %v; want %v", a.String(), back, err, a)
		}
		text, err := a.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", a, err)
		}
		var u Approach
		if err := u.UnmarshalText(text); err != nil || u != a {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, u, err, a)
		}
	})
}
