package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diffserve"
	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truediff"
)

// service drives an in-process diff server on loopback with one client per
// worker. Each client replays its own files in history order, and each
// request's source is the tree the previous request on that file returned,
// so the server's refs hit the way they do for a long-lived client. It is
// the only workload that goes through the S-expression and JSON codecs,
// admission, coalescing and the ref registry: costs of the service layer
// show here and nowhere else.
type service struct {
	in  *treeHistory
	p   params
	par int // server workers and clients
}

// spanHeader carries "op/transport-span/handler-span" from the benchmark's
// RoundTripper to its handler wrapper, so the server span joins the op.
const spanHeader = "X-Perfbench-Span"

func (w *service) pass(m *meter, pass int) error {
	// Set-up: server, listener and clients, and each client's first
	// request for each of its files, which registers the first versions.
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("service set-up: %w", err)
	}
	srv, err := diffserve.NewServer(diffserve.Config{
		Langs:   []string{"pylang"},
		Workers: w.par,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		ln.Close()
		return fmt.Errorf("service set-up: %w", err)
	}
	var handler http.Handler = srv
	if m.trace {
		handler = &tracingHandler{srv: srv, m: m}
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	clients := make([]*diffserve.Client, w.par)
	for c := range clients {
		opts := []diffserve.ClientOption{diffserve.WithTenant(fmt.Sprintf("client-%d", c))}
		if m.trace {
			opts = append(opts, diffserve.WithHTTPClient(&http.Client{Transport: &tracingTransport{base: &http.Transport{
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     90 * time.Second,
			}}}))
		}
		clients[c] = diffserve.NewClient("http://"+ln.Addr().String(), "pylang", w.in.sch, opts...)
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
		// The pass's figures are complete by now: teardown errors
		// cannot change them.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = hs.Shutdown(ctx)
		<-served
	}()
	ctx := context.Background()
	prev := append([]*tree.Node(nil), w.in.initial...)
	for f, t := range w.in.initial {
		if _, err := clients[f%w.par].Diff(ctx, t, t, nil); err != nil {
			return fmt.Errorf("service set-up: register file %d: %w", f, err)
		}
	}
	m.setup(time.Since(start))

	base := w.counters(srv, clients)
	queues := make([][]int, w.par)
	for i, ch := range w.in.changes {
		queues[ch.file%w.par] = append(queues[ch.file%w.par], i)
	}
	next := make([]int, w.par)
	pending := func() bool {
		for c, q := range queues {
			if next[c] < len(q) {
				return true
			}
		}
		return false
	}
	for pending() {
		// One round: the clients share a budget of requests, then the
		// oracle checks the round's results outside the timed region.
		var budget atomic.Int64
		budget.Store(int64(w.p.round))
		outs := make([][]request, w.par)
		var wg sync.WaitGroup
		a0 := allocBytes()
		r0 := time.Now()
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for next[c] < len(queues[c]) && budget.Add(-1) >= 0 {
					rq := w.request(m, clients[c], prev, queues[c][next[c]])
					next[c]++
					outs[c] = append(outs[c], rq)
				}
			}(c)
		}
		wg.Wait()
		m.addTimed(time.Since(r0), allocBytes()-a0)

		for _, out := range outs {
			for _, rq := range out {
				w.finish(m, rq)
			}
		}
	}
	if m.trace {
		w.addCounters(m, w.counters(srv, clients), base)
	}
	m.heapPass(pass)
	return nil
}

// request is one Client.Diff round trip and what the oracle and the trace
// need of it.
type request struct {
	change   int
	srcNodes int
	wall     time.Duration
	res      *truediff.Result
	err      error
	tr       *opTrace
	rt       *rtInfo
}

func (w *service) request(m *meter, cl *diffserve.Client, prev []*tree.Node, i int) request {
	ch := w.in.changes[i]
	src := prev[ch.file]
	rq := request{change: i, srcNodes: src.Size(), tr: m.beginOp(m.traceNext())}
	t0 := time.Now()
	ctx := context.Background()
	var client int64
	if rq.tr != nil {
		client = rq.tr.rec.id()
		rq.rt = &rtInfo{tr: rq.tr, parent: client}
		ctx = context.WithValue(ctx, rtKey{}, rq.rt)
	}
	t1 := time.Now()
	rq.res, rq.err = cl.Diff(ctx, src, ch.after, nil)
	t2 := time.Now()
	rq.wall = t2.Sub(t0)
	if rq.err == nil {
		prev[ch.file] = rq.res.Patched
	}
	if rq.tr != nil {
		rq.tr.add(client, 0, "diffserve.client", t1, t2)
		rq.tr.end(t0, t2)
	}
	return rq
}

// finish records a request and runs the oracle on it.
func (w *service) finish(m *meter, rq request) {
	ch := w.in.changes[rq.change]
	o := op{wall: rq.wall, changes: 1, failed: rq.err != nil, traced: rq.tr != nil}
	if rq.err == nil {
		o.nodes = rq.srcNodes + ch.after.Size()
		o.edits = rq.res.Script.EditCount()
	}
	m.record(o)
	if rq.err != nil {
		return
	}
	if rq.tr != nil {
		var resp struct {
			Stats *diffserve.WireStats `json:"stats"`
		}
		if err := json.Unmarshal(rq.rt.body.Bytes(), &resp); err == nil && resp.Stats != nil {
			st := resp.Stats
			ph := telemetry.PhaseTimes{
				time.Duration(st.PrepareNS), time.Duration(st.SharesNS),
				time.Duration(st.SelectNS), time.Duration(st.EmitNS),
			}
			eng := rq.tr.rec.addSynth(rq.tr.op, rq.rt.handler, "engine.diff", time.Duration(st.WallNS))
			rq.tr.phases(eng, ph)
			addDiffLayers(m, "engine.diff_other", ph, time.Duration(st.WallNS), rq.res.Script, st.SourceNodes, st.TargetNodes)
		}
	}
	if !checkScript(w.in.sch, rq.res.Script, rq.res.Patched, ch.after) {
		m.mismatch()
	}
}

func (w *service) targets() []*tree.Node { return w.in.sampleTargets(32) }

// serviceCounters are the cumulative counters the service layers expose.
type serviceCounters struct {
	batchJobs, batches float64
	sheds, resends     float64
	eng                engine.Snapshot
}

func (w *service) counters(srv *diffserve.Server, clients []*diffserve.Client) serviceCounters {
	var c serviceCounters
	for _, mt := range srv.GatherMetrics() {
		switch mt.Name {
		case "diffserve_batch_size_jobs":
			c.batchJobs, c.batches = float64(mt.Hist.Sum), float64(mt.Hist.Count)
		case "diffserve_sheds_total":
			c.sheds = mt.Value
		}
	}
	for _, cl := range clients {
		c.resends += float64(cl.ClientSnapshot().Resends)
	}
	c.eng = srv.Snapshot()["pylang"]
	return c
}

func (w *service) addCounters(m *meter, now, base serviceCounters) {
	m.addLayer("batch_jobs", now.batchJobs-base.batchJobs)
	m.addLayer("batches", now.batches-base.batches)
	m.addLayer("sheds", now.sheds-base.sheds)
	m.addLayer("resends", now.resends-base.resends)
	addEngineLayers(m, now.eng.Sub(base.eng))
}

// rtInfo travels on a traced request's context to the RoundTripper, and
// brings back the response body and the id of the server's span.
type rtInfo struct {
	tr      *opTrace
	parent  int64 // the diffserve.client span
	handler int64 // the handler span of the latest attempt
	body    bytes.Buffer
}

type rtKey struct{}

// tracingTransport times the wire part of a traced request: from handing
// the request to the transport until the client closes the response body.
type tracingTransport struct{ base http.RoundTripper }

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	info, _ := req.Context().Value(rtKey{}).(*rtInfo)
	if info == nil {
		return t.base.RoundTrip(req)
	}
	rec := info.tr.rec
	id, handler := rec.id(), rec.id()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d/%d", info.tr.op, id, handler))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		info.tr.add(id, info.parent, "diffserve.transport", start, time.Now())
		return nil, err
	}
	info.handler = handler
	info.body.Reset()
	resp.Body = &teeBody{ReadCloser: resp.Body, tee: &info.body, closed: func() {
		info.tr.add(id, info.parent, "diffserve.transport", start, time.Now())
	}}
	return resp, nil
}

// teeBody copies a response body as it is read and reports its closing.
type teeBody struct {
	io.ReadCloser
	tee    *bytes.Buffer
	once   sync.Once
	closed func()
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tee.Write(p[:n])
	return n, err
}

func (b *teeBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.closed)
	return err
}

// tracingHandler wraps the server: for a traced request it records the
// handler span, parented on the transport span named in spanHeader, and
// counts the request and response bytes.
type tracingHandler struct {
	srv *diffserve.Server
	m   *meter
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ids, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if !ok {
		h.srv.ServeHTTP(w, r)
		return
	}
	body := &countingReader{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.srv.ServeHTTP(cw, r)
	end := time.Now()
	h.m.rec.add(ids[0], ids[2], ids[1], "diffserve.handler", start, end)
	h.m.addLayer("request_bytes", float64(body.n))
	h.m.addLayer("response_bytes", float64(cw.n))
	h.m.addLayer("requests", 1)
}

func parseSpanHeader(v string) ([3]int64, bool) {
	var ids [3]int64
	parts := strings.Split(v, "/")
	if len(parts) != len(ids) {
		return ids, false
	}
	for i, s := range parts {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return ids, false
		}
		ids[i] = n
	}
	return ids, true
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
