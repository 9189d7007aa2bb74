package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bedom/internal/graph"
)

// target is what a workload loop drives: the real daemon over HTTP, or the
// traced run's in-process engine.  Both produce domserved's JSON answers.
type target interface {
	register(ng namedGraph) error
	// query answers q; client identifies the calling loop client.
	query(client int, q query) (httpReply, error)
	mutate(g string, d graph.Delta) (httpReply, error)
	checkpoint() error
	info(g string) (n, m int, err error)
	// crash stops the server without a final checkpoint; relaunch restarts
	// it on the same data directory and returns once it is ready.
	crash() error
	relaunch() error
}

// httpReply is a response status and body; elapsedMS is the engine's
// execution time reported in a query answer.
type httpReply struct {
	status    int
	body      []byte
	elapsedMS float64
}

// daemon is a domserved process on a loopback port.
type daemon struct {
	bin     string
	args    []string
	base    string
	logPath string
	tr      *http.Transport
	client  *http.Client
	// bufs holds one reusable answer buffer per loop client: a query's body
	// is valid until that client's next query.
	bufs []bytes.Buffer

	cmd  *exec.Cmd
	done chan struct{}
	// pid is the running process's id (0 while stopped), for samplers.
	pid atomic.Int64
	// peakRSSKB is the largest VmHWM read from any process of this daemon
	// before it stopped.
	peakRSSKB int64
	// scrape, when set, accumulates /metrics counter deltas of every
	// process from markBaseline until stop.
	scrape   bool
	baseline map[string]float64
	deltas   map[string]float64
}

// newDaemon prepares (without starting) a daemon on a free loopback port,
// with its log in dir.  dataDir, when set, makes it durable with background
// checkpoints off.
func newDaemon(bin, dir, dataDir string, clients int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-checkpoint-interval", "0")
	}
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &daemon{
		bin: bin, args: args, base: "http://" + addr,
		logPath: filepath.Join(dir, "domserved.log"),
		tr:      tr, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		bufs:   make([]bytes.Buffer, clients),
		deltas: make(map[string]float64),
	}, nil
}

// launch starts the process and returns once /healthz answers 200.
func (d *daemon) launch() error {
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	d.cmd, d.done = cmd, make(chan struct{})
	d.pid.Store(int64(cmd.Process.Pid))
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("domserved exited during start-up: %s", d.logTail())
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return errors.New("domserved not ready after a minute")
		}
		time.Sleep(healthzPoll)
	}
}

// healthzPoll is the readiness polling interval; it bounds the error of the
// set-up and recovery times.
const healthzPoll = 250 * time.Microsecond

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop reads the process's peak RSS and (when scraping) its counters, kills
// it with SIGKILL and waits for it to exit.  Safe when not running.
func (d *daemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	var err error
	if d.scrape {
		err = d.accumulate()
	}
	if kb, rerr := procStatusKB(d.cmd.Process.Pid, "VmHWM"); rerr == nil && kb > d.peakRSSKB {
		d.peakRSSKB = kb
	}
	d.pid.Store(0)
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	d.cmd = nil
	// Keep-alive connections to the dead process would fail the next POST.
	d.tr.CloseIdleConnections()
	return err
}

// procStatusKB reads one kB-valued field of /proc/<pid>/status, such as
// VmRSS (resident set) or VmHWM (its peak).
func procStatusKB(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s line", field)
}

// rssSampler reads the daemon's resident set every rssInterval until
// stopped; a sawtooth of garbage collections averages out over a window,
// where a single peak reading depends on when the last collection ran.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

const rssInterval = 20 * time.Millisecond

func sampleRSS(d *daemon) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if pid := d.pid.Load(); pid != 0 {
					if kb, err := procStatusKB(int(pid), "VmRSS"); err == nil {
						s.samples = append(s.samples, float64(kb)/1024)
					}
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// markBaseline starts accumulating /metrics deltas from the current values.
func (d *daemon) markBaseline() error {
	m, err := d.metrics()
	if err != nil {
		return err
	}
	d.scrape, d.baseline = true, m
	return nil
}

// accumulate adds the running process's counter movement since its baseline
// (zero for a process started after markBaseline).
func (d *daemon) accumulate() error {
	m, err := d.metrics()
	if err != nil {
		return err
	}
	for k, v := range m {
		d.deltas[k] += v - d.baseline[k]
	}
	d.baseline = nil
	return nil
}

// metrics scrapes GET /metrics into series → value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func (d *daemon) post(path, contentType string, body []byte) (httpReply, error) {
	return d.postInto(nil, path, contentType, body)
}

// postInto reads the response into buf when set (reusing its memory) and
// into a fresh slice otherwise.
func (d *daemon) postInto(buf *bytes.Buffer, path, contentType string, body []byte) (httpReply, error) {
	resp, err := d.client.Post(d.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return httpReply{}, err
	}
	defer resp.Body.Close()
	if buf == nil {
		b, err := io.ReadAll(resp.Body)
		return httpReply{status: resp.StatusCode, body: b}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return httpReply{status: resp.StatusCode, body: buf.Bytes()}, err
}

func (d *daemon) register(ng namedGraph) error {
	rep, err := d.post("/graphs", "application/x-ndjson", ng.ndjson)
	if err != nil {
		return err
	}
	if rep.status != http.StatusCreated {
		return fmt.Errorf("upload %s: status %d: %s", ng.name, rep.status, truncate(rep.body))
	}
	var info struct{ N, M int }
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return err
	}
	if info.N != ng.g.N() || info.M != ng.g.M() {
		return fmt.Errorf("upload %s: registered n=%d m=%d, sent n=%d m=%d", ng.name, info.N, info.M, ng.g.N(), ng.g.M())
	}
	return nil
}

func (d *daemon) query(client int, q query) (httpReply, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return httpReply{}, err
	}
	rep, err := d.postInto(&d.bufs[client], "/query", "application/json", body)
	if err == nil && rep.status == http.StatusOK {
		rep.elapsedMS, err = elapsedMS(rep.body)
	}
	return rep, err
}

// elapsedMS reads the trailing "elapsed_ms" field of a query answer without
// decoding the whole (possibly large) body.
func elapsedMS(body []byte) (float64, error) {
	const field = `"elapsed_ms":`
	i := bytes.LastIndex(body, []byte(field))
	if i < 0 {
		return 0, errors.New("answer has no elapsed_ms")
	}
	rest := body[i+len(field):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, errors.New("malformed elapsed_ms")
	}
	return strconv.ParseFloat(string(rest[:end]), 64)
}

func (d *daemon) mutate(g string, delta graph.Delta) (httpReply, error) {
	body, err := json.Marshal(delta)
	if err != nil {
		return httpReply{}, err
	}
	return d.post("/graphs/"+g+"/edges", "application/json", body)
}

func (d *daemon) checkpoint() error {
	rep, err := d.post("/admin/checkpoint", "application/json", nil)
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", rep.status, truncate(rep.body))
	}
	return err
}

func (d *daemon) info(g string) (int, int, error) {
	resp, err := d.client.Get(d.base + "/graphs")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var list struct {
		Graphs []struct {
			Name string
			N, M int
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, 0, err
	}
	for _, gi := range list.Graphs {
		if gi.Name == g {
			return gi.N, gi.M, nil
		}
	}
	return 0, 0, fmt.Errorf("graph %q not registered", g)
}

func (d *daemon) crash() error { return d.stop() }

func (d *daemon) relaunch() error { return d.launch() }
