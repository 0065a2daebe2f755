package job

import (
	"errors"
	"testing"

	"repro/internal/euler"
	"repro/internal/jobkind"
)

func TestValidateUploadCounts(t *testing.T) {
	cases := []struct {
		name            string
		vertices, edges uint64
		ok              bool
	}{
		{"empty", 0, 0, true},
		{"at caps", uint64(MaxUploadVertices), uint64(MaxUploadEdges), true},
		{"vertices over cap", uint64(MaxUploadVertices) + 1, 0, false},
		{"edges over cap", 0, uint64(MaxUploadEdges) + 1, false},
		{"header wraps int64", 1 << 63, 1 << 63, false},
	}
	for _, c := range cases {
		if err := ValidateUploadCounts(c.vertices, c.edges); (err == nil) != c.ok {
			t.Errorf("%s: ValidateUploadCounts(%d, %d) = %v, want ok=%v", c.name, c.vertices, c.edges, err, c.ok)
		}
	}
}

// pairs returns n copies of the edge [0 1].
func pairs(n int) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		out[i] = [2]int64{0, 1}
	}
	return out
}

// diffAdd is a diff that adds the given edges.
func diffAdd(p ...[2]int64) *DiffSpec { return &DiffSpec{Add: p} }

// TestParseMode checks the spec's mode field end to end: Validate accepts
// every wire name and rejects an unknown one as a kind SpecError, and
// KindRequest hands the name on to the engine mode it stands for.
func TestParseMode(t *testing.T) {
	for in, want := range map[string]euler.Mode{
		"": euler.ModeCurrent, "current": euler.ModeCurrent,
		"dedup": euler.ModeDedup, "proposed": euler.ModeProposed,
	} {
		s := Spec{Generator: &GenSpec{Family: "torus"}, Mode: in}
		if err := s.Validate(); err != nil {
			t.Errorf("Validate with mode %q: %v", in, err)
			continue
		}
		if got, err := jobkind.ParseMode(s.KindRequest().Options.Mode); err != nil || got != want {
			t.Errorf("mode %q maps to %v, %v; want %v", in, got, err, want)
		}
	}
	s := Spec{Generator: &GenSpec{Family: "torus"}, Mode: "quantum"}
	var se *jobkind.SpecError
	if err := s.Validate(); !errors.As(err, &se) {
		t.Errorf("Validate with an unknown mode = %v, want a *jobkind.SpecError", err)
	}
}

func TestEstimatedEdges(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want int64
	}{
		{"upload", Spec{Uploaded: true, DeclaredEdges: 123}, 123},
		{"rmat", Spec{Generator: &GenSpec{Family: "rmat", Vertices: 1000, Degree: 4}}, 2000},
		{"torus", Spec{Generator: &GenSpec{Family: "torus", Width: 10, Height: 20}}, 400},
		{"grid", Spec{Generator: &GenSpec{Family: "grid", Width: 10, Height: 20}}, 400},
		{"cliques", Spec{Generator: &GenSpec{Family: "cliques", K: 4, C: 5}}, 40},
		{"unknown family", Spec{Generator: &GenSpec{Family: "petersen"}}, 0},
		{"delta", Spec{Base: "ab", Diff: &DiffSpec{Add: pairs(2)}}, 0},
		{"graphless", Spec{Kind: "debruijn"}, 0},
	}
	for _, c := range cases {
		if got := c.spec.EstimatedEdges(); got != c.want {
			t.Errorf("%s: EstimatedEdges() = %d, want %d", c.name, got, c.want)
		}
	}
}
