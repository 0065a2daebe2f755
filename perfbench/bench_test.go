package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestToyWorkloads runs every workload of BENCHMARK.json at toy size,
// untraced and traced, and checks that the result line carries each
// declared metric with its declared unit and that every circuit checked
// out.
func TestToyWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}

	eulerd := filepath.Join(t.TempDir(), "eulerd")
	build := exec.Command("go", "build", "-o", eulerd, "repro/cmd/eulerd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building eulerd: %v\n%s", err, out)
	}

	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{
					"--workload", w.Name, "--seed", "3", "--seconds", "0.5", "--trace", trace,
					"--size", "toy", "--eulerd", eulerd, "--work", t.TempDir(),
				}
				if err := run(args, &stdout); err != nil {
					t.Fatalf("run: %v\n%s", err, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				declared := bf.EndToEnd
				if trace == "1" {
					declared = bf.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestCheckCircuitRejectsWrongCircuits(t *testing.T) {
	// Triangle 0-1-2 as edges 0:(0,1) 1:(1,2) 2:(2,0).
	var want digest
	want.add(0, 0, 1)
	want.add(1, 1, 2)
	want.add(2, 2, 0)
	good := `{"edge":0,"from":0,"to":1}
{"edge":1,"from":1,"to":2}
{"edge":2,"from":2,"to":0}
`
	if err := checkCircuit([]byte(good), want); err != nil {
		t.Fatalf("good circuit rejected: %v", err)
	}
	bad := map[string]string{
		"repeated edge": strings.Replace(good, `"edge":2`, `"edge":1`, 1),
		"broken walk":   strings.Replace(good, `"from":1,"to":2`, `"from":2,"to":1`, 1),
		"short":         good[:strings.LastIndex(strings.TrimSpace(good), "\n")+1],
		"wrong edge id": strings.NewReplacer(`"edge":0`, `"edge":9`).Replace(good),
		"wrong endpoints": `{"edge":0,"from":0,"to":2}
{"edge":1,"from":2,"to":1}
{"edge":2,"from":1,"to":0}
`,
	}
	for name, c := range bad {
		if err := checkCircuit([]byte(c), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
