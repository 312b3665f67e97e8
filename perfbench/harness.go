package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmfb/client"
	"dmfb/internal/dispatch"
	"dmfb/internal/service"
	"dmfb/internal/telemetry"
)

// stackOpts selects how a server stack is assembled. The zero value is the
// default dtmb-serve deployment: in-memory job store, no dispatch.
type stackOpts struct {
	// distributed mounts a dispatch.Coordinator and starts two in-process
	// workers with one kernel worker each.
	distributed bool
	// storeDir, when set, backs the job store with NewFileJobStore there.
	storeDir string
	tr       *tracer
}

// Distributed stacks cut jobs into 4-point shards and poll for work every
// 5 ms, so that both workers stay busy to the end of a job: with the
// defaults (64-point shards, 500 ms poll) one worker finished most jobs
// alone.
const (
	shardSize  = 4
	workerPoll = 5 * time.Millisecond
)

// stack is one running server — engine, job store, optional coordinator
// and workers — reached over loopback through client.
type stack struct {
	storeDir   string
	store      *service.Store
	coord      *dispatch.Coordinator
	workerRegs []*telemetry.Registry
	http       *http.Server
	base       string
	cli        *client.Client
	httpc      *http.Client

	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
	workerErrs  chan error
}

// newTransport mirrors the client package's stock transport limits; one
// per client keeps each caller on its own keep-alive connection.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:          100,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
		ExpectContinueTimeout: time.Second,
		ResponseHeaderTimeout: 5 * time.Minute,
	}
}

// discardJSONLogger formats log records like dtmb-serve's info-level JSON
// logger but writes them nowhere, so the access-log cost stays in the
// measurement without flooding the benchmark's output.
func discardJSONLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// startStack builds a server from the constructors dtmb-serve and
// dtmb-worker use, serves it on a loopback port and returns once /readyz
// answers and, when distributed, both workers have registered.
func startStack(opts stackOpts) (*stack, error) {
	logger := discardJSONLogger()
	registry := telemetry.NewRegistry()
	engine := service.NewEngine(service.EngineConfig{Registry: registry, Logger: logger})
	s := &stack{storeDir: opts.storeDir}
	jobsCfg := service.JobStoreConfig{}
	var routes []service.Route
	if opts.distributed {
		s.coord = dispatch.NewCoordinator(dispatch.Config{
			ShardSize: shardSize,
			Registry:  registry,
			Logger:    logger,
		})
		jobsCfg.Runner = s.coord
		routes = s.coord.Routes()
	}
	var err error
	if opts.storeDir != "" {
		s.store, err = service.NewFileJobStore(engine, jobsCfg, opts.storeDir)
	} else {
		s.store = service.NewJobStore(engine, jobsCfg)
	}
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		if s.store != nil {
			_ = s.store.Close(context.Background()) // nothing runs yet
		}
		if s.coord != nil {
			s.coord.Close()
		}
		return nil, err
	}
	s.http = &http.Server{
		Handler:           service.NewHandler(engine, s.store, logger, routes...),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = s.http.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.httpc = &http.Client{Transport: opts.tr.wrap(newTransport(), "loadgen")}
	s.cli = client.New(s.base, client.WithHTTPClient(s.httpc))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for s.cli.Ready(ctx) != nil {
		if ctx.Err() != nil {
			s.stop()
			return nil, errors.New("server never became ready")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !opts.distributed {
		return s, nil
	}
	wctx, stopWorkers := context.WithCancel(context.Background())
	s.stopWorkers = stopWorkers
	s.workerErrs = make(chan error, 2)
	for i := 0; i < 2; i++ {
		reg := telemetry.NewRegistry()
		s.workerRegs = append(s.workerRegs, reg)
		name := fmt.Sprintf("worker-%d", i+1)
		cfg := dispatch.WorkerConfig{
			Coordinator: s.base,
			Name:        name,
			Engine:      service.EngineConfig{Workers: 1, Registry: reg, Logger: logger},
			Poll:        workerPoll,
			Logger:      logger,
			ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{
				Transport: opts.tr.wrap(newTransport(), name),
			})},
		}
		s.workersDone.Add(1)
		go func() {
			defer s.workersDone.Done()
			if err := dispatch.RunWorker(wctx, cfg); err != nil && wctx.Err() == nil {
				s.workerErrs <- fmt.Errorf("%s: %w", cfg.Name, err)
			}
		}()
	}
	for s.coord.Stats().WorkersActive < 2 {
		select {
		case err := <-s.workerErrs:
			s.stop()
			return nil, err
		default:
		}
		if ctx.Err() != nil {
			s.stop()
			return nil, errors.New("workers never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return s, nil
}

// workerError reports the first error a worker loop returned, if any.
func (s *stack) workerError() error {
	if s.workerErrs == nil {
		return nil
	}
	select {
	case err := <-s.workerErrs:
		return err
	default:
		return nil
	}
}

// haltWorkers stops the worker loops, if any, and waits for them to end.
func (s *stack) haltWorkers() {
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workersDone.Wait()
	}
}

// stop tears the stack down in dtmb-serve's order — workers, then jobs and
// HTTP, then the coordinator — and waits for every goroutine it started.
func (s *stack) stop() {
	s.haltWorkers()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.store.Close(ctx)
	_ = s.http.Shutdown(ctx)
	if s.coord != nil {
		s.coord.Close()
	}
	s.httpc.CloseIdleConnections()
	if s.storeDir != "" {
		_ = os.RemoveAll(s.storeDir) // inside workDir, removed at exit anyway
	}
}

// buildStack makes a stack of the given kind, on a fresh store directory
// when distributed, and returns it with the time it took to become ready.
func buildStack(distributed bool, tr *tracer) (*stack, time.Duration, error) {
	opts := stackOpts{distributed: distributed, tr: tr}
	if distributed {
		dir, err := makeTempDir("store-")
		if err != nil {
			return nil, 0, err
		}
		opts.storeDir = dir
	}
	t0 := time.Now()
	s, err := startStack(opts)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return s, d, nil
}

// setupSampler times builds of untraced throwaway stacks of the workload's
// kind. A run builds some at its start and more after every round, so that
// setup_s, like the other metrics, sees the host over the whole run rather
// than over its first moments.
type setupSampler struct {
	distributed bool
	times       []float64 // seconds
	err         error
}

// sample builds, times and tears down k stacks.
func (ss *setupSampler) sample(k int) {
	for i := 0; i < k && ss.err == nil; i++ {
		var s *stack
		var d time.Duration
		if s, d, ss.err = buildStack(ss.distributed, nil); ss.err == nil {
			ss.times = append(ss.times, d.Seconds())
			s.stop()
		}
	}
}

// counters reads every series of the server's /metrics exposition over
// HTTP plus the workers' registries, summing samples of one name across
// labels and processes.
func (s *stack) counters(ctx context.Context) (map[string]float64, error) {
	// A histogram scraped while an observation lands can show a count one
	// ahead of its buckets, which the exposition parser rejects; a later
	// scrape is consistent.
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		var out map[string]float64
		if out, err = s.scrape(ctx); err == nil {
			return out, nil
		}
	}
	return nil, err
}

func (s *stack) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	if err := addExposition(out, resp.Body); err != nil {
		return nil, err
	}
	for _, reg := range s.workerRegs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		if err := addExposition(out, &buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func addExposition(out map[string]float64, r io.Reader) error {
	exp, err := telemetry.ParseExposition(r)
	if err != nil {
		return fmt.Errorf("parse exposition: %w", err)
	}
	for _, smp := range exp.Samples {
		if strings.HasSuffix(smp.Name, "_bucket") {
			continue
		}
		out[smp.Name] += smp.Value
	}
	return nil
}

// delta returns after − before for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// span is one timed interval: an HTTP call of the load generator or a
// worker, or one ladder call into a layer.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run measures.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, parent string, start, end time.Time, status int) {
	if t == nil {
		return
	}
	sp := span{Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Status: status}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// time runs fn inside a span.
func (t *tracer) time(name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end, 0)
	return end.Sub(start)
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// timeCPU runs fn inside a span and returns the process CPU time it took,
// which, unlike wall time, a neighbour's load on the host does not inflate.
func (t *tracer) timeCPU(name, parent string, fn func()) time.Duration {
	c0 := sampleProc().cpu
	t.time(name, parent, fn)
	return sampleProc().cpu - c0
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap returns rt unchanged without tracing, or a RoundTripper that records
// one span per request from send to the close of the response body.
func (t *tracer) wrap(rt http.RoundTripper, caller string) http.RoundTripper {
	if t == nil {
		return rt
	}
	return &timingTransport{base: rt, tr: t, caller: caller}
}

type opKey struct{}

// withOp names the benchmark operation an HTTP call belongs to; the timing
// transport records it as the span's parent.
func withOp(ctx context.Context, op string) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

type timingTransport struct {
	base   http.RoundTripper
	tr     *tracer
	caller string
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	parent, _ := req.Context().Value(opKey{}).(string)
	if parent == "" {
		parent = t.caller
	}
	name := req.Method + " " + routeOf(req.URL.Path)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.add(name, parent, start, time.Now(), 0)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.tr.add(name, parent, start, time.Now(), resp.StatusCode)
	}}
	return resp, nil
}

// spanBody ends its span when the caller closes the response body, so
// streamed results count in full.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// routeOf folds job IDs out of a path so spans group by endpoint.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) >= 4 && parts[1] == "v2" && parts[2] == "jobs" {
		parts[3] = "{id}"
	}
	return strings.Join(parts, "/")
}

// procSample is the process's CPU time, heap allocation and GC CPU at one
// instant; differences of two samples bracket a measured window.
type procSample struct {
	cpu, gcCPU time.Duration
	alloc      uint64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	ms := append([]metrics.Sample(nil), procMetrics...)
	metrics.Read(ms)
	return procSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms[0].Value.Uint64(),
		gcCPU: time.Duration(ms[1].Value.Float64() * float64(time.Second)),
	}
}

func (a procSample) sub(b procSample) procSample {
	return procSample{cpu: a.cpu - b.cpu, gcCPU: a.gcCPU - b.gcCPU, alloc: a.alloc - b.alloc}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// round is one round of a workload's closed loop. Every round of a run
// has the same make-up, and the end-to-end metrics are medians over
// rounds, so that a neighbour's burst of load during a few rounds moves
// them little.
type round struct {
	ops     int // requests (evaluate) or grid points received (sweeps)
	elapsed time.Duration
	proc    procSample
	lat     []float64 // cold requests or job round trips, in ms
	hits    []float64 // cache-served requests, in ms
}

// roundMedians computes the end-to-end metrics common to all workloads as
// medians over rounds, except the 90th latency percentile: a round holds
// too few samples for it, so it is taken over the whole run.
func roundMedians(rounds []round) map[string]float64 {
	var rate, p50, all, hit, cpu, alloc []float64
	for _, r := range rounds {
		n := float64(max(r.ops, 1))
		rate = append(rate, float64(r.ops)/r.elapsed.Seconds())
		p50 = append(p50, median(r.lat))
		all = append(all, r.lat...)
		if len(r.hits) > 0 {
			hit = append(hit, median(r.hits))
		}
		cpu = append(cpu, ms(r.proc.cpu)/n)
		alloc = append(alloc, float64(r.proc.alloc)/1024/n)
	}
	return map[string]float64{
		"ops_per_s":          median(rate),
		"latency_p50_ms":     median(p50),
		"latency_p90_ms":     quantile(all, 0.9),
		"hit_latency_p50_ms": median(hit),
		"cpu_ms_per_op":      median(cpu),
		"alloc_kb_per_op":    median(alloc),
	}
}

// totalProc sums the rounds' process samples.
func totalProc(rounds []round) (proc procSample) {
	for _, r := range rounds {
		proc.cpu += r.proc.cpu
		proc.gcCPU += r.proc.gcCPU
		proc.alloc += r.proc.alloc
	}
	return proc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workDir is the benchmark's scratch directory, inside the checkout it
// runs from.
const workDir = ".perfbench-work"

func makeTempDir(prefix string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, prefix)
}
