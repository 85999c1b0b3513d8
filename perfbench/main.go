// Command perfbench is the repository benchmark: it drives one named
// workload through the public entry points (cdcs.SynthesizeContext
// locally, or an in-process serve.Server reached through
// internal/client), checks every output, and prints the workload's
// metrics. With -trace 0 it prints the end-to-end metrics; with
// -trace 1 it runs the workload once untraced and once with timing
// wrappers around the calls into each layer, and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for why each workload exists and what it
// loads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// run carries one invocation's settings to the workload drivers.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// corrupt perturbs every expected value the checks compare
	// against, to show that a wrong output is caught.
	corrupt bool
	// scratch is a private directory under the checkout for the
	// serve workloads' data directories; removed on exit.
	scratch string
}

// outcome is what a workload driver hands back: the metrics it
// measured plus the operation tally the result line reports.
type outcome struct {
	attempted int
	failed    int
	// wrong counts outputs that failed a correctness check (also
	// counted in failed); any makes the run incorrect.
	wrong   int
	metrics map[string]float64
}

// drivers runs each named workload.
var drivers = map[string]func(r *run) (*outcome, error){
	"paper":       runPaper,
	"budget":      runBudget,
	"serve-light": runServeLight,
	"serve-paper": runServePaper,
}

// benchmarkFile names the metrics the result line carries, with their
// units: the end-to-end set for -trace 0, the per-layer set for
// -trace 1. A per-layer metric whose layer a workload does not reach
// reads 0.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readMetricSpecs(trace bool) ([]metricSpec, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("decode %s: %w", benchmarkFile, err)
	}
	if trace {
		return b.PerLayer, nil
	}
	return b.EndToEnd, nil
}

func main() {
	name := flag.String("workload", "", "workload: paper, budget, serve-light or serve-paper")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics")
	corrupt := flag.Bool("corrupt-expected", false, "perturb every expected value (shows the checks fire)")
	flag.Parse()

	drive, ok := drivers[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (paper, budget, serve-light, serve-paper), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	specs, err := readMetricSpecs(*trace == 1)
	if err == nil {
		_, err = os.Stat(goldenPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		corrupt: *corrupt,
		scratch: scratch,
	}
	fmt.Println(stamp(*name, *seed))
	out, err := drive(r)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out.metrics["fail_rate"] = ratio(float64(out.failed), float64(out.attempted))
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   out.wrong == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, m := range specs {
		v, ok := out.metrics[m.Name]
		if !ok && !r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured no %s\n", *name, m.Name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Printf("%-28s %14.4f %s\n", m.Name, v, m.Unit)
	}
	for k := range out.metrics {
		if _, ok := res.Metrics[k]; !ok && r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %s, which %s does not declare\n", *name, k, benchmarkFile)
			os.Exit(1)
		}
	}
	fmt.Printf("# %d attempted, %d failed (%d wrong outputs), fail_rate %.4f\n",
		out.attempted, out.failed, out.wrong, out.metrics["fail_rate"])
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildDir is the benchmark's private directory inside the checkout.
func buildDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench")
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// stamp identifies the measurement: machine shape, toolchain, source
// and seed. The checkout the benchmark runs in need not be a git
// repository, so alongside any embedded VCS revision it prints a
// digest of the Go sources the binary was built from.
func stamp(workload string, seed int64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

// sourceDigest hashes every .go file and go.mod under the working
// directory (the repository root), skipping dot-directories.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// overheadPct compares the median latency of the traced half of a
// -trace 1 run with the untraced half, in percent.
func overheadPct(traced, untraced []float64) float64 {
	base := median(untraced)
	if base == 0 {
		return 0
	}
	return 100 * (median(traced)/base - 1)
}

// medianSetup runs setup n times and returns the median duration in
// seconds plus the value the last call built; earlier values are
// released with teardown.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	return median(times), last, nil
}

// setupRepeats is how many times each workload sets up per run; the
// median is reported as setup_s.
const setupRepeats = 3

// --- heap sampler ---

// heapSampler polls the runtime's live-plus-unswept heap object bytes
// (the figure MemStats.HeapAlloc reports, read without stopping the
// world) every 10 ms.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // written by the sampling goroutine until done
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MB, taken as the
// 99th percentile of the samples: the heap in use that the run
// exceeds 1% of the time. The single highest sample depends on where
// garbage collections happen to fall and moves from run to run.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99)
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
