package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/serve"
)

// Serve workload shape: two closed-loop clients, each on its own
// connection, sending rounds of serveRound single-vector requests that
// cycle through serveVectors seeded vectors.
const (
	serveClients = 2
	serveRound   = 32
	serveVectors = 8
)

// daemon is a running spmv-serve process.
type daemon struct {
	cmd     *osexec.Cmd
	addr    string
	out     chan struct{} // closed when the stdout reader has finished
	once    sync.Once
	stopErr error
}

// startDaemon boots spmv-serve on a free loopback port and waits for its
// listening line.
func startDaemon(root string) (*daemon, error) {
	cmd := osexec.Command(filepath.Join(root, ".bench_build", "bin", "spmv-serve"), "-addr", "127.0.0.1:0")
	cmd.Env = cleanEnv()
	cmd.Stderr = os.Stderr
	// The daemon dies with this process, should it be killed first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.addr = "http://" + a
		return d, nil
	case <-d.out:
		_ = d.stop()
		return nil, fmt.Errorf("daemon exited before listening")
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("daemon did not listen within 30s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; later
// calls return the first call's result.
func (d *daemon) stop() error {
	d.once.Do(func() {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			_ = d.cmd.Process.Kill()
		}
		timer := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
		d.stopErr = d.cmd.Wait()
		timer.Stop()
		<-d.out
	})
	return d.stopErr
}

// peakRSSMB is the stopped daemon's peak resident set in MB.
func (d *daemon) peakRSSMB() float64 {
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// envelope is the daemon's response shape.
type envelope[T any] struct {
	OK    bool `json:"ok"`
	Data  T    `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// call POSTs (or GETs, with a nil body) and decodes the envelope.
func call[T any](c *http.Client, method, url string, body []byte) (T, error) {
	var zero T
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return zero, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return zero, err
	}
	var env envelope[T]
	if err := json.Unmarshal(data, &env); err != nil {
		return zero, fmt.Errorf("%s %s: status %d: %w", method, url, resp.StatusCode, err)
	}
	if !env.OK {
		msg := "no error body"
		if env.Error != nil {
			msg = env.Error.Code + ": " + env.Error.Message
		}
		return zero, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, msg)
	}
	return env.Data, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// serveInputs are the seeded vectors, their oracle products and the
// pre-encoded request bodies, the upload among them, so that encoding
// stays out of every timed region.
type serveInputs struct {
	m      *matrix.CSR
	upload []byte
	bodies [][]byte
	want   [][]float64
	abs    [][]float64
}

func makeServeInputs(seed int64, t *tracer) (*serveInputs, error) {
	id := t.begin("gen.generate", -1, 0)
	m, err := generate(servePars(seed))
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &serveInputs{m: m}
	if in.upload, err = uploadBody(m); err != nil {
		return nil, fmt.Errorf("upload body: %w", err)
	}
	for v := 0; v < serveVectors; v++ {
		x := seededVector(m.Cols, subSeed(seed, 11+uint64(v)))
		body, err := json.Marshal(serve.MultiplyRequest{X: x})
		if err != nil {
			return nil, err
		}
		want, abs := make([]float64, m.Rows), make([]float64, m.Rows)
		oracleMul(m, x, 1, want, abs)
		in.bodies = append(in.bodies, body)
		in.want = append(in.want, want)
		in.abs = append(in.abs, abs)
	}
	return in, nil
}

// uploadBody renders the matrix as the MatrixMarket upload request.
func uploadBody(m *matrix.CSR) ([]byte, error) {
	var mm strings.Builder
	if err := matrix.WriteMatrixMarket(&mm, m); err != nil {
		return nil, err
	}
	return json.Marshal(serve.UploadSpec{Name: "perfbench", MatrixMarket: mm.String()})
}

// serveSetup boots the daemon, uploads the matrix and takes a first
// response: the set-up a serving user pays. It returns the daemon, the
// multiply URL and the upload time.
func serveSetup(root string, in *serveInputs, t *tracer) (*daemon, string, float64, error) {
	d, err := startDaemon(root)
	if err != nil {
		return nil, "", 0, err
	}
	c := newClient()
	id := t.begin("serve.upload", -1, 0)
	u0 := time.Now()
	up, err := call[serve.UploadResponse](c, "POST", d.addr+"/v1/matrices", in.upload)
	upload := time.Since(u0).Seconds()
	t.end(id)
	if err != nil {
		_ = d.stop()
		return nil, "", 0, fmt.Errorf("upload: %w", err)
	}
	url := d.addr + "/v1/matrices/" + up.Info.Fingerprint + "/multiply"
	res, err := call[serve.MultiplyResponse](c, "POST", url, in.bodies[0])
	if err == nil {
		err = compareWithin(res.Y, in.want[0], in.abs[0])
	}
	if err != nil {
		_ = d.stop()
		return nil, "", 0, fmt.Errorf("first response: %w", err)
	}
	c.CloseIdleConnections()
	return d, url, upload, nil
}

// runServe is the serve workload.
func runServe(cfg runConfig, r *childResult) error {
	tr := cfg.tr
	in, err := makeServeInputs(cfg.seed, tr)
	if err != nil {
		return err
	}
	t0 := time.Now()
	d, url, upload, err := serveSetup(cfg.root, in, tr)
	if err != nil {
		return err
	}
	r.SetupS = time.Since(t0).Seconds()
	defer d.stop()
	if cfg.setupOnly {
		return d.stop()
	}

	type clientOut struct {
		lat       []float64
		rounds    roundTimes
		attempted int
		errs      []string
	}
	outs := make([]clientOut, serveClients)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			o := &outs[ci]
			c := newClient()
			defer c.CloseIdleConnections()
			n := ci // clients start on different vectors
			for round := 0; len(o.lat) < minOps || time.Now().Before(deadline); round++ {
				t := tr
				if round%2 == 1 {
					t = nil
				}
				r0 := time.Now()
				for i := 0; i < serveRound; i++ {
					v := n % serveVectors
					n++
					req := uint64(ci)<<40 | uint64(n)
					id := t.begin("serve.request", -1, req)
					q0 := time.Now()
					res, err := call[serve.MultiplyResponse](c, "POST", url, in.bodies[v])
					o.lat = append(o.lat, time.Since(q0).Seconds())
					t.end(id)
					o.attempted++
					if err == nil {
						err = compareWithin(res.Y, in.want[v], in.abs[v])
					}
					if err != nil {
						o.errs = append(o.errs, err.Error())
					}
				}
				if tr != nil {
					o.rounds.add(t != nil, time.Since(r0))
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var (
		lat    []float64
		rounds roundTimes
	)
	for _, o := range outs {
		lat = append(lat, o.lat...)
		rounds.traced = append(rounds.traced, o.rounds.traced...)
		rounds.plain = append(rounds.plain, o.rounds.plain...)
		r.Attempted += o.attempted
		for _, e := range o.errs {
			r.fail("%s", e)
		}
	}
	stats, err := call[serve.StatsResponse](newClient(), "GET", d.addr+"/v1/stats", nil)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("daemon exit: %w", err)
	}
	format := ""
	if len(stats.Matrices) > 0 {
		format = stats.Matrices[0].Format
	}
	r.note("serve rows=%d nnz=%d csr=%.1fMB format=%s clients=%d requests=%d mean_batch=%.2f",
		in.m.Rows, in.m.NNZ(), in.m.FootprintMB(), format, serveClients, len(lat), stats.Totals.MeanBatch)
	if err := latencyMetrics(r, lat); err != nil {
		return err
	}
	r.Metrics["multiply_gflops"] = flops(int64(in.m.NNZ()), 1) * float64(len(lat)) / elapsed / 1e9
	r.Metrics["ops_per_s"] = float64(len(lat)) / elapsed
	r.Metrics["peak_rss_mb"] = d.peakRSSMB()
	if tr == nil {
		return nil
	}
	overhead(r, rounds)
	r.Layers["gen.generate_s"] = tr.total("gen.generate")
	r.Layers["serve.upload_s"] = upload
	r.Layers["serve.mean_batch"] = stats.Totals.MeanBatch
	r.Layers["serve.flush_window"] = float64(stats.Totals.FlushWindow)
	r.Layers["serve.flush_full"] = float64(stats.Totals.FlushFull)

	// The daemon's selection and coalescer, replayed in this process on
	// the same matrix: what the upload's build and a request's kernel
	// share cost without HTTP and JSON.
	mark := markEngine()
	id := tr.begin("selector.auto", -1, 0)
	f, err := selector.BuildAuto(in.m, selector.AutoOptions{})
	r.Layers["selector.auto_s"] = tr.end(id).Seconds()
	if err != nil {
		return fmt.Errorf("local auto: %w", err)
	}
	co := serve.NewCoalescer(context.Background(), f, serve.DefaultWindow, serve.DefaultMaxBatch)
	var (
		mu    sync.Mutex
		coLat []float64
		coErr error
	)
	coDeadline := time.Now().Add(time.Second)
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			x := seededVector(in.m.Cols, subSeed(cfg.seed, 11+uint64(ci)))
			for n := 0; n < 100 || time.Now().Before(coDeadline); n++ {
				id := tr.begin("serve.coalescer", -1, 0)
				_, _, err := co.Multiply(context.Background(), x)
				d := tr.end(id).Seconds()
				mu.Lock()
				if err != nil {
					coErr = err
				} else {
					coLat = append(coLat, d)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	co.Close()
	if coErr != nil {
		return fmt.Errorf("local coalescer: %w", coErr)
	}
	engineLayers(r, mark)
	r.Layers["serve.coalescer_ms_p50"] = median(coLat) * 1e3
	r.Layers["serve.transport_ms_p50"] = (median(lat) - median(coLat)) * 1e3
	return sweepInto(r, tr, []sweepInput{{name: "serve", a: in.m, pick: f.Chosen(), k: 1}})
}
