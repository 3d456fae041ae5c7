package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"xlupc/internal/sim"
)

// TestVirtualResultsRepeat runs every workload twice on one seed, once
// traced, and once on another seed: the first two must agree exactly on
// every virtual result and checksum, and the other seed must change the
// checksum. No op may fail.
func TestVirtualResultsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := w.make(1).iterate(nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.make(1).iterate(newTracer())
			if err != nil {
				t.Fatal(err)
			}
			other, err := w.make(2).iterate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.virt != traced.virt {
				t.Errorf("traced run differs from untraced:\n%+v\n%+v", traced.virt, plain.virt)
			}
			if plain.virt.checksum == other.virt.checksum {
				t.Errorf("seeds 1 and 2 gave the same checksum %#x", plain.virt.checksum)
			}
			for _, it := range []iter{plain, traced, other} {
				if it.failed != 0 || it.ops == 0 || it.virt.latN == 0 {
					t.Errorf("ops %d, failed %d, latency samples %d", it.ops, it.failed, it.virt.latN)
				}
			}
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// runOutput runs the command in-process and returns its exit code, its
// standard output lines and the decoded result line.
func runOutput(t *testing.T, args ...string) (int, []string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--trace-dir", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out.String())
		}
	}
	return code, lines, res
}

func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sorted(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}

// TestOutputMatchesBenchmarkJSON checks the header and that the
// untraced and traced runs print exactly the metrics BENCHMARK.json
// declares.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkNames(t)
	code, lines, res := runOutput(t, "--workload", "kv-open", "--seed", "3", "--seconds", "1", "--trace", "0")
	if code != 0 || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	header := strings.Join(lines[:2], "\n")
	for _, want := range []string{"go=" + runtime.Version(), "GOMAXPROCS=", "nproc="} {
		if !strings.Contains(header, want) {
			t.Errorf("header lacks %q:\n%s", want, header)
		}
	}
	if got, want := metricNames(res), sorted(e2e); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	code, _, res = runOutput(t, "--workload", "kv-open", "--seed", "3", "--seconds", "1", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("traced run: exit %d, result %+v", code, res)
	}
	if got, want := metricNames(res), sorted(layer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv-open", "--trace", "2"},
		{"--workload", "kv-open", "--seconds", "0"},
	} {
		code, lines, _ := runOutput(t, args...)
		if code == 0 || strings.HasPrefix(lines[len(lines)-1], "{") {
			t.Errorf("%v: exit %d, output %q", args, code, lines)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := make([]sim.Time, 1000)
	for i := range s {
		s[i] = sim.Time(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want sim.Time
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestTracerUnion checks the coverage arithmetic on spans that nest and
// overlap on the host timeline, with a synthetic clock.
func TestTracerUnion(t *testing.T) {
	tr := newTracer()
	clock := int64(0)
	tr.clock = func() int64 { return clock }
	a := tr.begin() // [0, 50]
	clock = 10
	b := tr.begin() // [10, 70], overlaps a's end
	clock = 20
	tr.window(true)
	clock = 50
	tr.end(spanGet, 0, a)
	clock = 70
	tr.end(spanBody, 1, b)
	clock = 100
	c := tr.begin() // [100, 120]
	clock = 120
	tr.end(spanGet, 0, c)
	clock = 220
	tr.window(false)
	if got := tr.meanNs(spanGet); got != 35 {
		t.Errorf("mean core.get %v, want 35", got)
	}
	// The window [20, 220] has [20, 70] and [100, 120] covered.
	if got, want := tr.residualShare(), 1-70.0/200; got != want {
		t.Errorf("residual share %v, want %v", got, want)
	}
	// Body span [10, 70] counts whole in the window it closed in.
	if got, want := tr.selfShare(), 60.0/200; got != want {
		t.Errorf("self share %v, want %v", got, want)
	}
}
