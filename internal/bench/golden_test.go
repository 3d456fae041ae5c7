package bench

// Absolute virtual-time fingerprints for the dual-mode parity tests.
// Agreement between the two execution modes proves little on its own
// once both share one protocol implementation, so every parity point
// is also pinned to fixed numbers: the kernel event count, the virtual
// makespan and the program checksum, recorded in
// testdata/parity_golden.txt. Regenerate the file (only when a change
// is meant to move the virtual-time results, and say why) with
//
//	go test ./internal/bench -run 'Parity' -update

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xlupc/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/parity_golden.txt from this build")

const goldenPath = "testdata/parity_golden.txt"

// fingerprint is the virtual-time identity of one run.
type fingerprint struct {
	Events   int64
	Elapsed  sim.Time
	Checksum uint64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%d %d %#x", f.Events, int64(f.Elapsed), f.Checksum)
}

var golden struct {
	once sync.Once
	mu   sync.Mutex
	fps  map[string]fingerprint
	err  error
}

func loadGolden() {
	golden.fps = make(map[string]fingerprint)
	f, err := os.Open(goldenPath)
	if err != nil {
		golden.err = err
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 4 {
			golden.err = fmt.Errorf("%s: malformed line %q", goldenPath, line)
			return
		}
		ev, err1 := strconv.ParseInt(fs[1], 10, 64)
		el, err2 := strconv.ParseInt(fs[2], 10, 64)
		ck, err3 := strconv.ParseUint(fs[3], 0, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			golden.err = fmt.Errorf("%s: malformed line %q", goldenPath, line)
			return
		}
		golden.fps[fs[0]] = fingerprint{Events: ev, Elapsed: sim.Time(el), Checksum: ck}
	}
	golden.err = sc.Err()
}

// checkGolden asserts got against the recorded fingerprint for name,
// or records it under -update.
func checkGolden(t *testing.T, name string, got fingerprint) {
	t.Helper()
	golden.once.Do(func() {
		if !*updateGolden {
			loadGolden()
			return
		}
		golden.fps = make(map[string]fingerprint)
	})
	golden.mu.Lock()
	defer golden.mu.Unlock()
	if *updateGolden {
		golden.fps[name] = got
		return
	}
	if golden.err != nil {
		t.Fatalf("golden fingerprints: %v", golden.err)
	}
	want, ok := golden.fps[name]
	if !ok {
		t.Fatalf("no golden fingerprint for %s (got %v); regenerate with -update", name, got)
	}
	if got != want {
		t.Errorf("%s: fingerprint (events elapsed checksum) = %v, golden %v", name, got, want)
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *updateGolden && code == 0 && golden.fps != nil {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeGolden() error {
	names := make([]string, 0, len(golden.fps))
	for n := range golden.fps {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# name kernel-events elapsed-ps checksum (see golden_test.go)\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s %v\n", n, golden.fps[n])
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}
