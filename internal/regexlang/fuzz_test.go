package regexlang

import (
	"strings"
	"testing"

	"shapesearch/internal/shape"
)

// FuzzParseRoundTrip: every input that parses formats (String) to a
// canonical form that re-parses to an Equal tree, formats to itself again,
// and normalizes to the same fingerprint — the contract the server's plan
// cache and the parse endpoint's canonical echo rely on.
func FuzzParseRoundTrip(f *testing.F) {
	for _, in := range idempotentFormatInputs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// Each optional unit doubles the normalized alternatives; bound the
		// input and that expansion so one case stays cheap.
		if len(in) > 64 || strings.Count(in, "?") > 6 {
			t.Skip()
		}
		q, err := Parse(in)
		if err != nil {
			return
		}
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("Parse(%q) formats to %q, which does not parse: %v", in, s1, err)
		}
		if !q.Root.Equal(q2.Root) {
			t.Fatalf("Parse(%q) formats to %q, which parses to a different tree", in, s1)
		}
		if s2 := q2.String(); s2 != s1 {
			t.Fatalf("format not idempotent: %q -> %q -> %q", in, s1, s2)
		}
		n1, err1 := shape.Normalize(q)
		n2, err2 := shape.Normalize(q2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Normalize disagrees on %q (%v) and its format %q (%v)", in, err1, s1, err2)
		}
		if err1 == nil && n1.Fingerprint() != n2.Fingerprint() {
			t.Fatalf("fingerprints differ: %q -> %q, %q -> %q", in, n1.Fingerprint(), s1, n2.Fingerprint())
		}
	})
}
