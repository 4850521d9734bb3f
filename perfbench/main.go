// Command perfbench is the repository's benchmark. It builds a 5-node
// durable ring (R=3, majority quorums, 32 stripes), runs one named workload
// on it from a seed, checks every key against the client's model, and
// prints the workload's metrics. The last line of standard output is one
// JSON object: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. Ring data and trace files go under
// .bench_build in the working directory; run.sh builds the benchmark and
// runs it from the checkout's root. See DESIGN.md for the workloads and
// metrics.
//
//	perfbench --workload zipf-serve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // directory for ring data and the trace file
	small    bool   // reduced sizes, for the benchmark's own test
}

func main() {
	o := options{root: ".bench_build"}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: zipf-serve, uniform-large or crash-catchup")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time to aim for")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A failed correctness check is a result, not an error: it is reported
	// in the result line, whose "correct" field is false.
	fmt.Println(string(line))
}

// run executes one invocation and returns its result; progress and
// report lines go to out.
func run(o options, out io.Writer) (result, error) {
	cfg, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.small {
		cfg = smallConfig(cfg)
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	runDir := filepath.Join(o.root, "run", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	if o.trace {
		return runTraced(o, cfg, runDir, out)
	}
	return runMeasured(o, cfg, runDir, out)
}

// warmUp runs an untimed episode, so the first measured episode does not
// pay the process's one-time costs (heap growth, intern-table fill,
// first-use paths).
func warmUp(o options, cfg config, runDir string) error {
	if o.small {
		return nil
	}
	if !cfg.warmUpFull {
		cfg = smallConfig(cfg)
	}
	e, err := runEpisode(cfg, filepath.Join(runDir, "warm-up"), o.seed-1, newTracer(false))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := e.r.close(); err != nil {
		return err
	}
	if e.failed > 0 {
		return fmt.Errorf("warm-up episode failed %d checks, first: %v", e.failed, e.errs[0])
	}
	return nil
}

// episodeSeed derives episode n's input seed from the run's seed.
func episodeSeed(seed int64, n int) int64 { return seed*1_000_003 + int64(n) }

// runMeasured runs untraced episodes until o.seconds have passed (at
// least one), sets up extra rings until setupsPerRun set-ups were timed,
// and reports the end-to-end metrics. Every episode does the same fixed
// amount of work, so more time buys more samples, not heavier ones.
func runMeasured(o options, cfg config, runDir string, out io.Writer) (result, error) {
	if err := warmUp(o, cfg, runDir); err != nil {
		return result{}, err
	}
	var eps []*episode
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < o.seconds; n++ {
		e, err := runEpisode(cfg, episodeDir(runDir, n), episodeSeed(o.seed, n), newTracer(false))
		if err != nil {
			return result{}, err
		}
		if err := e.r.close(); err != nil {
			return result{}, err
		}
		e.r = nil // let the ring's memory go before the next set-up
		eps = append(eps, e)
		fmt.Fprintf(out, "episode %d: %d ops in %.2fs, setup %.2fs, %d failed\n",
			n, len(e.ops), e.opTime.Seconds(), e.setup.Seconds(), e.failed)
	}
	setups := make([]float64, 0, setupsPerRun)
	for _, e := range eps {
		setups = append(setups, e.setup.Seconds())
	}
	for n := len(eps); len(setups) < setupsPerRun; n++ {
		r, d, err := setupRing(cfg, episodeDir(runDir, n), episodeSeed(o.seed, n))
		if err != nil {
			return result{}, err
		}
		if err := r.close(); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	res, extra := endToEnd(eps, setups)
	printReport(out, res.Metrics, extra)
	for _, e := range eps {
		for _, err := range e.errs {
			fmt.Fprintln(out, "failure:", err)
		}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics of a set of episodes. The
// gated metrics (every workload has them) go in the result; metrics that
// only some workloads have are returned separately, for the report lines.
//
// Client throughput is the median over client phases, and each latency
// and round-time percentile is the median over episodes of the episode's
// percentile, so one disturbed phase or episode cannot move a run's figure
// much. Byte and CPU figures are totals.
func endToEnd(eps []*episode, setups []float64) (result, map[string]metric) {
	var rates, lags, revive, catchup, heaps []float64
	var nWrites, nReads, nRounds int
	var writeP50, writeP99, readP50, readP99, roundP50, roundP90 []float64
	var ops, acked, attempted, failed int
	var cpu time.Duration
	var wire int64
	openLoop := false
	for _, e := range eps {
		for i, d := range e.phases {
			rates = append(rates, float64(e.phaseOps[i])/d.Seconds())
		}
		var writes, reads, rounds []float64
		for _, r := range e.ops {
			lat := us(time.Duration(r.stop - r.due))
			if r.kind == opRead {
				reads = append(reads, lat)
			} else {
				writes = append(writes, lat)
			}
			lags = append(lags, us(time.Duration(r.start-r.due)))
		}
		for _, rr := range e.rounds {
			rounds = append(rounds, ms(time.Duration(rr.stop-rr.start)))
			wire += rr.bytes
		}
		writeP50 = append(writeP50, quantile(writes, 0.5))
		writeP99 = append(writeP99, quantile(writes, 0.99))
		readP50 = append(readP50, quantile(reads, 0.5))
		readP99 = append(readP99, quantile(reads, 0.99))
		roundP50 = append(roundP50, quantile(rounds, 0.5))
		roundP90 = append(roundP90, quantile(rounds, 0.9))
		nWrites += len(writes)
		nReads += len(reads)
		nRounds += len(rounds)
		for _, d := range e.revive {
			revive = append(revive, ms(d))
		}
		for _, d := range e.catchup {
			catchup = append(catchup, ms(d))
		}
		heaps = append(heaps, e.heapMB)
		ops += len(e.ops)
		acked += e.acked
		cpu += e.cpu
		attempted += len(e.ops) + e.checked
		failed += e.failed
		openLoop = openLoop || e.cfg.rate > 0
	}
	m := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"ops_per_s":            {median(rates), "1/s"},
		"write_p50_us":         {median(writeP50), "us"},
		"write_p99_us":         {median(writeP99), "us"},
		"read_p50_us":          {median(readP50), "us"},
		"read_p99_us":          {median(readP99), "us"},
		"round_p50_ms":         {median(roundP50), "ms"},
		"round_p90_ms":         {median(roundP90), "ms"},
		"wire_bytes_per_write": {float64(wire) / float64(max(acked, 1)), "B/write"},
		"cpu_ms_per_kop":       {ms(cpu) / (float64(ops) / 1000), "ms/kop"},
		"heap_live_mb":         {median(heaps), "MiB"},
	}
	extra := map[string]metric{
		"fail_frac":      {float64(failed) / float64(max(attempted, 1)), "1"},
		"samples.writes": {float64(nWrites), "count"},
		"samples.reads":  {float64(nReads), "count"},
		"samples.rounds": {float64(nRounds), "count"},
	}
	if openLoop {
		extra["sched_lag_p99_us"] = metric{quantile(lags, 0.99), "us"}
	}
	if len(revive) > 0 {
		extra["revive_p50_ms"] = metric{median(revive), "ms"}
		extra["catchup_p50_ms"] = metric{median(catchup), "ms"}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, extra
}

// printReport writes one "name value unit" line per metric, sorted.
func printReport(out io.Writer, sets ...map[string]metric) {
	var names []string
	all := map[string]metric{}
	for _, set := range sets {
		for k, v := range set {
			names = append(names, k)
			all[k] = v
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %14.4f %s\n", n, all[n].Value, all[n].Unit)
	}
}
