package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenIDs are the experiments whose reports are fully modelled — every
// cell is a deterministic function of the cost model, with no wall-clock
// timing — and which run complex predicates, projections and the TPC-H and
// real-data kernels through the facade's profiled executor.
var goldenIDs = []string{"fig12", "fig14", "fig19", "fig20", "fig21", "fig22"}

// renderGolden renders every report of one experiment at Quick() scale.
func renderGolden(t *testing.T, id string) string {
	t.Helper()
	reports, err := Run(id, Quick())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
	}
	return b.String()
}

// TestGoldenModelled compares the modelled experiments byte for byte with
// testdata/<id>.golden. A refactor of the executor must leave every
// modelled cycle, L2-miss and match count unchanged; a deliberate change
// to the cost model regenerates the files and says so in its commit.
func TestGoldenModelled(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(t, id)
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("%s line %d:\n got  %q\n want %q", id, i+1, g, w)
				}
			}
		})
	}
}
