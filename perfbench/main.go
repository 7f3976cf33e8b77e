// Command perfbench is the repository's benchmark. It drives the default
// thin lock (core.NewDefault, what thinlock.New builds) through three
// closed-loop workloads and prints end-to-end metrics, or with -trace 1
// per-layer metrics from a separate traced run. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solo-sync --seed 1 --seconds 10 --trace 0
//
// -workload all runs every workload in turn. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the command exits non-zero if any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// outDir holds the result details and span files, relative to the
// working directory (the repository root when run through run.sh).
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: solo-sync, pair-contend, monitor-churn or all")
	seed := flag.Uint64("seed", 1, "seed of the generated request streams")
	seconds := flag.Float64("seconds", 10, "measuring time per workload, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	var ws []*workload
	if *name == "all" {
		ws = workloads()
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	}
	if len(ws) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload solo-sync|pair-contend|monitor-churn|all, -trace 0|1 and -seconds > 0")
		os.Exit(2)
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		rep, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if err := rep.write(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
			os.Exit(2)
		}
		rep.print(os.Stdout)
		final.Correct = final.Correct && rep.Result.Correct
		final.Attempted += rep.Result.Attempted
		final.Failed += rep.Result.Failed
		for k, m := range rep.Result.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !final.Correct || final.Failed > 0 {
		os.Exit(1)
	}
}

// epochSample is one epoch's raw figures, as recorded in the details.
type epochSample struct {
	Traced          bool     `json:"traced"`
	SetupS          float64  `json:"setup_s"`
	WindowS         float64  `json:"window_s"`
	Requests        int      `json:"requests"`
	ReqPerS         float64  `json:"req_per_s"`
	WindowedReqPerS float64  `json:"windowed_req_per_s"`
	P50us           float64  `json:"req_p50_us"`
	P99us           float64  `json:"req_p99_us"`
	RetainedMB      float64  `json:"retained_heap_mb,omitempty"`
	Failed          int      `json:"failed"`
	Checksum        string   `json:"checksum"`
	Violations      []string `json:"violations,omitempty"`
}

// report is everything one workload run produced.
type report struct {
	Workload    string            `json:"workload"`
	Fingerprint map[string]string `json:"fingerprint"`
	Epochs      []epochSample     `json:"epochs"`
	Nesting     *[4]uint64        `json:"lock_nesting_depths,omitempty"`
	SpanFile    string            `json:"span_file,omitempty"`
	// LatencySamples is the number of request latencies behind
	// req_p50_us and req_p99_us (one in a hundred lies beyond the p99).
	LatencySamples int     `json:"latency_samples,omitempty"`
	Result         result  `json:"result"`
	ErrorRate      float64 `json:"error_rate"`
	spans          *spanStats
	traced         bool
}

func runWorkload(w *workload, seed uint64, seconds float64, traced bool) (*report, error) {
	rep := &report{Workload: w.name, Fingerprint: fingerprint(w, seed, seconds, traced), traced: traced, spans: &spanStats{}}
	logs := newClientLogs(w.clients, w.requests/w.clients)
	minEpochs := 3
	if traced {
		minEpochs = 4 // two untraced, two traced, interleaved
	}
	var results []*epochResult
	start := nanotime()
	for e := 0; e < minEpochs || float64(nanotime()-start) < seconds*1e9; e++ {
		r, err := runEpoch(w, seed, e, w.requests, traced && e%2 == 1, logs, rep.spans)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		res.Attempted += r.requests
		res.Failed += r.failed + len(r.violations)
		res.Correct = res.Correct && r.failed == 0 && len(r.violations) == 0
		rep.Epochs = append(rep.Epochs, epochSample{
			Traced:          r.traced,
			SetupS:          float64(r.setupNs) / 1e9,
			WindowS:         float64(r.windowNs) / 1e9,
			Requests:        r.requests,
			ReqPerS:         r.reqPerSec(),
			WindowedReqPerS: r.windowedReqPerSec(),
			P50us:           float64(r.p50) / 1e3,
			P99us:           float64(r.p99) / 1e3,
			RetainedMB:      float64(r.retained) / 1e6,
			Failed:          r.failed,
			Checksum:        fmt.Sprintf("%016x", r.checksum),
			Violations:      r.violations,
		})
	}
	rep.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	if traced {
		res.Metrics = layerMetrics(results, rep.spans)
		var depths [4]uint64
		for _, r := range results {
			if r.layer != nil {
				for i, n := range r.layer.calls.depths {
					depths[i] += n
				}
			}
		}
		rep.Nesting = &depths
	} else {
		res.Metrics = endToEndMetrics(results, rep.Epochs)
		rep.LatencySamples = res.Attempted
	}
	rep.Result = res
	return rep, nil
}

// endToEndMetrics reports latency percentiles over every request of the
// run (each epoch's latency sketch pooled; epochs are equally sized), the
// mean retained heap over epochs, and the median over epochs of the other
// figures.
func endToEndMetrics(results []*epochResult, epochs []epochSample) map[string]metric {
	values := func(f func(epochSample) float64) []float64 {
		var xs []float64
		for _, e := range epochs {
			xs = append(xs, f(e))
		}
		return xs
	}
	var pooled []int64
	for _, r := range results {
		pooled = append(pooled, r.sketch...)
	}
	slices.Sort(pooled)
	return map[string]metric{
		"req_per_s":        {median(values(func(e epochSample) float64 { return e.ReqPerS })), "1/s"},
		"req_p50_us":       {float64(quantile(pooled, 0.50)) / 1e3, "us"},
		"req_p99_us":       {float64(quantile(pooled, 0.99)) / 1e3, "us"},
		"retained_heap_mb": {mean(values(func(e epochSample) float64 { return e.RetainedMB })), "MB"},
		"setup_s":          {median(values(func(e epochSample) float64 { return e.SetupS })), "s"},
	}
}

func (rep *report) write(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	if rep.traced {
		if err := os.MkdirAll(filepath.Join(dir, "trace"), 0o755); err != nil {
			return err
		}
		rep.SpanFile = filepath.Join(dir, "trace", fmt.Sprintf("%s-seed%s.spans.jsonl", rep.Workload, rep.Fingerprint["seed"]))
		if err := rep.spans.writeSpans(rep.SpanFile); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%s-trace%s.json", rep.Workload, rep.Fingerprint["seed"], rep.Fingerprint["trace"])
	return os.WriteFile(filepath.Join(dir, "results", name), append(b, '\n'), 0o644)
}

// print writes the human-readable summary and a one-line JSON copy of
// the raw samples and the fingerprint.
func (rep *report) print(f *os.File) {
	fmt.Fprintf(f, "# %s: %d epochs; fingerprint and raw samples on the '# samples' line\n", rep.Workload, len(rep.Epochs))
	names := make([]string, 0, len(rep.Result.Metrics))
	for k := range rep.Result.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		m := rep.Result.Metrics[k]
		fmt.Fprintf(f, "%-16s %-32s %16.6g %s\n", rep.Workload, k, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%-16s %-32s %16.6g %s   (%d failed of %d attempted)\n",
		rep.Workload, "error_rate", rep.ErrorRate, "ratio", rep.Result.Failed, rep.Result.Attempted)
	for i, e := range rep.Epochs {
		for _, v := range e.Violations {
			fmt.Fprintf(f, "# VIOLATION epoch %d: %s\n", i, v)
		}
	}
	if rep.LatencySamples > 0 {
		fmt.Fprintf(f, "# latency percentiles over %d requests (%d beyond the p99)\n", rep.LatencySamples, rep.LatencySamples/100)
	}
	if rep.SpanFile != "" {
		fmt.Fprintf(f, "# spans: %s\n", rep.SpanFile)
	}
	// Strings, numbers and slices of them always marshal.
	detail, _ := json.Marshal(struct {
		Workload    string            `json:"workload"`
		Fingerprint map[string]string `json:"fingerprint"`
		Epochs      []epochSample     `json:"epochs"`
	}{rep.Workload, rep.Fingerprint, rep.Epochs})
	fmt.Fprintf(f, "# samples %s\n", detail)
}

// fingerprint records the machine and the run's settings.
func fingerprint(w *workload, seed uint64, seconds float64, traced bool) map[string]string {
	trace := "0"
	if traced {
		trace = "1"
	}
	return map[string]string{
		"workload":       w.name,
		"seed":           fmt.Sprint(seed),
		"seconds":        fmt.Sprint(seconds),
		"trace":          trace,
		"clients":        fmt.Sprint(w.clients),
		"epoch_requests": fmt.Sprint(w.requests),
		"gomaxprocs":     fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":          fmt.Sprint(runtime.NumCPU()),
		"cpu":            cpuModel(),
		"go":             runtime.Version(),
		"os_arch":        runtime.GOOS + "/" + runtime.GOARCH,
		"git_rev":        gitRev(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git in the working
// directory, without running git; a plain source tree has none.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (no .git)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}
