package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"lard/internal/breaker"
	"lard/internal/cache"
	"lard/internal/core"
	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/internal/metrics"
	"lard/internal/quota"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// The stage driver replays a workload's requests through the stages a
// request crosses in the front end and the back end by calling each
// layer's public functions directly. It takes the stages one at a time
// and, within a stage, the requests in trace order: every call is one
// span carrying the request's index, and a layer's time is the median of
// its spans. It runs in this process, on one goroutine plus the peers a
// socket needs, with each stage's code and data warm, so it measures
// what a layer costs and not what scheduling three processes costs: the
// distance to the live latency is what frontend.stage_coverage reports.

const (
	stageRequests = 20000 // replayed per stage, unless its time share ends first
	maxHeadBytes  = 64 << 10
	loadedSlots   = 100 // outstanding dispatches in the loaded replay
)

type stageResult struct {
	values map[string]float64
	spans  []span
}

// stager holds the spans and the per-stage durations of one replay. The
// zero stager records nothing, for the allocation counts.
type stager struct {
	req      int64 // the request being replayed
	spans    []span
	durs     map[string][]int64
	overhead int64 // what a span of nothing measures, in ns
}

// timed records one span around f.
func (s *stager) timed(name string, f func()) {
	t0 := sinceEpoch()
	f()
	s.add(name, t0, sinceEpoch())
}

func (s *stager) add(name string, t0, t1 int64) {
	if s.durs == nil {
		return
	}
	s.spans = append(s.spans, span{Name: name, Parent: "stages.replay", Req: s.req, Start: t0, End: t1})
	s.durs[name] = append(s.durs[name], t1-t0)
}

// ns is a stage's median duration less the clock's own cost, never below
// zero.
func (s *stager) ns(name string) float64 {
	return max(0, percentile(s.durs[name], 0.5)-float64(s.overhead))
}

// clockOverhead is the median of spans around nothing.
func clockOverhead() int64 {
	v := make([]int64, 2001)
	for i := range v {
		t0 := sinceEpoch()
		v[i] = sinceEpoch() - t0
	}
	return int64(percentile(v, 0.5))
}

// fixedLoads is a load table that never changes, for timing
// Strategy.Select alone.
type fixedLoads []int

func (l fixedLoads) NodeCount() int    { return len(l) }
func (l fixedLoads) Load(node int) int { return l[node] }

func runStages(w workload, tr *trace.Trace, budget time.Duration) (*stageResult, error) {
	s := &stager{durs: map[string][]int64{}, overhead: clockOverhead()}
	g := newGenerator(tr, w.reqsPerConn)
	replayStart := sinceEpoch()

	// replay runs one stage over the trace's first requests, in order,
	// until they run out, the stage fails, or the stage's share of the
	// budget does. It returns how many requests the stage saw.
	var stageErr error
	replay := func(share time.Duration, stage func(i int64, t trace.Target, d *doc)) int64 {
		deadline := time.Now().Add(share)
		i := int64(0)
		for ; i < stageRequests && stageErr == nil; i++ {
			if i%64 == 0 && !time.Now().Before(deadline) {
				break
			}
			ti := tr.Requests[i%int64(len(tr.Requests))]
			s.req = i
			stage(i, tr.Targets[ti], &g.docs[ti])
		}
		return i
	}
	virtualNow := func(i int64) time.Duration { return time.Duration(i) * 100 * time.Microsecond }
	// The pure-CPU stages get through every request in milliseconds; the
	// three socket stages share the budget.
	const cpuShare = time.Second
	socketShare := budget / 3

	// Head parse, on the exact bytes the client sends.
	var headRd bytes.Reader
	headBr := bufio.NewReaderSize(nil, 16<<10)
	parse := func(raw []byte) {
		headRd.Reset(raw)
		headBr.Reset(&headRd)
		if _, err := httprelay.ReadRequestHead(headBr, maxHeadBytes); err != nil {
			stageErr = err
		}
	}
	replay(cpuShare, func(i int64, _ trace.Target, d *doc) {
		s.timed("httprelay.read_request_head", func() { parse(d.keep) })
	})

	limiter := quota.New(quota.Config{Rate: 1e6})
	replay(cpuShare, func(i int64, _ trace.Target, _ *doc) {
		s.timed("quota.allow", func() { limiter.Allow("127.0.0.1", virtualNow(i)) })
	})
	breakers := breaker.New(breaker.Config{})
	replay(cpuShare, func(i int64, _ trace.Target, _ *doc) {
		s.timed("breaker.allow", func() { breakers.Allow(int(i)%nodes, virtualNow(i)) })
	})

	// Session dispatch with the workload's policy and connection lengths:
	// one session per client connection, closed and reopened after
	// reqsPerConn requests. The node each request lands on feeds the
	// cache stage below.
	policy, err := lard.NewConnPolicy(w.policy)
	if err != nil {
		return nil, err
	}
	newDispatcher := func() lard.Dispatcher {
		d, err := lard.New(strategy, lard.WithNodes(nodes))
		if err != nil && stageErr == nil {
			stageErr = err
		}
		return d
	}
	sessD, oneD, loadedD := newDispatcher(), newDispatcher(), newDispatcher()
	if stageErr != nil {
		return nil, stageErr
	}
	type sess struct {
		s    *lard.Session
		left int
	}
	sessions := make([]sess, clientCount())
	landed := make([]int8, stageRequests)
	moves := 0
	dispatched := replay(cpuShare, func(i int64, t trace.Target, _ *doc) {
		ss := &sessions[i%int64(len(sessions))]
		if ss.s == nil {
			ss.s, ss.left = sessD.NewSession(policy), w.reqsPerConn
		}
		s.timed("lard.session_dispatch", func() {
			node, moved, done, err := ss.s.Dispatch(virtualNow(i), lard.Request{Target: t.Name})
			if err != nil {
				stageErr = err
				return
			}
			done()
			landed[i] = int8(node)
			if moved {
				moves++
			}
		})
		if ss.left == 1 {
			ss.s.Close()
			ss.s = nil
		} else if ss.left > 1 {
			ss.left--
		}
	})
	for _, ss := range sessions {
		if ss.s != nil {
			ss.s.Close()
		}
	}

	replay(cpuShare, func(i int64, t trace.Target, _ *doc) {
		s.timed("lard.oneshot_dispatch", func() {
			if _, done, err := oneD.Dispatch(virtualNow(i), lard.Request{Target: t.Name}); err == nil {
				done()
			}
		})
	})
	// With loadedSlots dispatches outstanding the T_low/T_high tests run,
	// which two closed-loop connections never reach.
	ring := make([]func(), 0, loadedSlots+1)
	rejected := 0
	loaded := replay(cpuShare, func(i int64, t trace.Target, _ *doc) {
		s.timed("lard.dispatch_loaded", func() {
			_, done, err := loadedD.Dispatch(virtualNow(i), lard.Request{Target: t.Name})
			if err != nil {
				rejected++
				return
			}
			ring = append(ring, done)
			if len(ring) > loadedSlots {
				ring[0]()
				ring = append(ring[:0], ring[1:]...)
			}
		})
	})
	for _, done := range ring {
		done()
	}

	// Strategy.Select alone, under a load table that does not move: idle,
	// and with one node over T_high and one under T_low.
	idle := core.NewLARDR(fixedLoads(make([]int, nodes)), core.DefaultParams())
	busy := core.NewLARDR(fixedLoads{70, 30, 20, 10}, core.DefaultParams())
	replay(cpuShare, func(i int64, t trace.Target, _ *doc) {
		s.timed("core.select", func() { idle.Select(virtualNow(i), lard.Request{Target: t.Name}) })
	})
	replay(cpuShare, func(i int64, t trace.Target, _ *doc) {
		s.timed("core.select_loaded", func() { busy.Select(virtualNow(i), lard.Request{Target: t.Name}) })
	})

	// Handoff to a real listener on loopback: a session-framed header on
	// an open transport, and a dial plus a v1 header.
	hh, err := newHandoffHarness()
	if err != nil {
		return nil, err
	}
	defer hh.close()
	replay(socketShare, func(_ int64, _ trace.Target, d *doc) {
		if err := hh.pooled(s, d.keep); err != nil {
			stageErr = err
		}
	})
	replay(socketShare, func(i int64, _ trace.Target, d *doc) {
		if err := hh.dial(s, d.keep); err != nil {
			stageErr = err
		}
	})

	// Response relay between two loopback sockets, of a canned response
	// of each document's size.
	rh, err := newRelayHarness()
	if err != nil {
		return nil, err
	}
	defer rh.close()
	var nsPerKB []int64
	replay(socketShare, func(_ int64, t trace.Target, _ *doc) {
		dur, err := rh.relay(s, t.Size)
		if err != nil {
			stageErr = err
			return
		}
		nsPerKB = append(nsPerKB, dur*1024/t.Size)
	})

	// The back ends' caches, each seeing the requests that landed on its
	// node, in order.
	caches := make([]cache.Cache, nodes)
	evictions := 0
	for i := range caches {
		caches[i] = cache.NewGDS(w.cacheBytes)
		caches[i].SetEvictCallback(func(string, int64) { evictions++ })
	}
	replay(cpuShare, func(i int64, t trace.Target, _ *doc) {
		if i >= dispatched {
			return // no node to look it up on
		}
		c := caches[landed[i]]
		hit := false
		s.timed("cache.lookup", func() { _, hit = c.Lookup(t.Name) })
		if !hit {
			s.timed("cache.insert", func() { c.Insert(t.Name, t.Size) })
		}
	})

	hist := metrics.NewRegistry().Histogram("bench_stage_seconds", "stage driver")
	replay(cpuShare, func(i int64, _ trace.Target, _ *doc) {
		s.timed("metrics.observe", func() { hist.Observe(virtualNow(i)) })
	})

	if stageErr != nil {
		return nil, fmt.Errorf("stage driver, request %d: %w", s.req, stageErr)
	}
	s.spans = append(s.spans, span{Name: "stages.replay", Req: -1, Start: replayStart, End: sinceEpoch()})

	v := map[string]float64{
		"httprelay.read_request_head_ns":  s.ns("httprelay.read_request_head"),
		"httprelay.read_response_head_ns": s.ns("httprelay.read_response_head"),
		"httprelay.relay_response_ns":     s.ns("httprelay.relay_response"),
		"httprelay.relay_ns_per_kb":       percentile(nsPerKB, 0.5),
		"quota.allow_ns":                  s.ns("quota.allow"),
		"breaker.allow_ns":                s.ns("breaker.allow"),
		"metrics.observe_ns":              s.ns("metrics.observe"),
		"lard.session_dispatch_ns":        s.ns("lard.session_dispatch"),
		"lard.oneshot_dispatch_ns":        s.ns("lard.oneshot_dispatch"),
		"lard.dispatch_ns_loaded":         s.ns("lard.dispatch_loaded"),
		"lard.moves_per_req":              float64(moves) / float64(dispatched),
		"lard.overloaded_share":           float64(rejected) / float64(loaded),
		"core.select_ns":                  s.ns("core.select"),
		"core.select_ns_loaded":           s.ns("core.select_loaded"),
		"handoff.dial_send_us":            s.ns("handoff.dial_send") / 1e3,
		"handoff.pooled_send_us":          s.ns("handoff.pooled_send") / 1e3,
		"cache.lookup_ns":                 s.ns("cache.lookup"),
		"cache.insert_ns":                 s.ns("cache.insert"),
		"cache.evictions_per_kreq":        1e3 * float64(evictions) / float64(dispatched),
	}
	v["lard.self_ns"] = v["lard.oneshot_dispatch_ns"] - v["core.select_ns"]

	// Allocations, from testing.AllocsPerRun around the same calls on the
	// workload's most popular document.
	t := tr.Targets[0]
	req := lard.Request{Target: t.Name}
	as := sessD.NewSession(policy)
	defer as.Close()
	v["lard.session_dispatch_allocs"] = testing.AllocsPerRun(200, func() {
		if _, _, done, err := as.Dispatch(0, req); err == nil {
			done()
		}
	})
	v["core.select_allocs"] = testing.AllocsPerRun(200, func() { idle.Select(0, req) })
	v["httprelay.read_request_head_allocs"] = testing.AllocsPerRun(200, func() { parse(g.docs[0].keep) })
	v["httprelay.relay_response_allocs"] = testing.AllocsPerRun(50, func() { rh.relay(&stager{}, t.Size) })
	v["handoff.allocs_per_handoff"] = testing.AllocsPerRun(50, func() { hh.pooled(&stager{}, g.docs[0].keep) })

	for _, shards := range []int{1, 8} {
		ns, err := contendedDispatch(shards, tr)
		if err != nil {
			return nil, err
		}
		v["lard.dispatch_ns_shards"+strconv.Itoa(shards)] = ns
	}
	return &stageResult{values: v, spans: s.spans}, nil
}

// contendedDispatch has one goroutine per processor dispatch the trace's
// requests through one dispatcher for a tenth of a second, and returns
// wall-clock nanoseconds per dispatch: the number that says whether
// shards buy anything on this host.
func contendedDispatch(shards int, tr *trace.Trace) (float64, error) {
	d, err := lard.New(strategy, lard.WithNodes(nodes), lard.WithShards(shards))
	if err != nil {
		return 0, err
	}
	const window = 100 * time.Millisecond
	workers := runtime.NumCPU()
	counts := make([]int, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += workers {
				if i%256 == g && time.Since(t0) > window {
					return
				}
				t := tr.Targets[tr.Requests[i%len(tr.Requests)]]
				if _, done, err := d.Dispatch(0, lard.Request{Target: t.Name}); err == nil {
					done()
				}
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(elapsed.Nanoseconds()) / float64(total), nil
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair() (dialed, accepted net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted, err = ln.Accept()
	if err != nil {
		dialed.Close()
		return nil, nil, err
	}
	return dialed, accepted, nil
}

// handoffHarness is a real handoff.Listener on loopback and the
// goroutine that plays the back end's accept loop: it reports each
// Accept, reads the session to its end, closes it, and reports that too.
type handoffHarness struct {
	ln        *handoff.Listener
	accepted  chan struct{}
	drained   chan struct{}
	transport net.Conn // an open session-framed transport, between sessions
	timeout   *time.Timer
}

const handoffFlags = handoff.FlagRehandoff | handoff.FlagSessionFramed

func newHandoffHarness() (*handoffHarness, error) {
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &handoffHarness{ln: ln, accepted: make(chan struct{}), drained: make(chan struct{}), timeout: time.NewTimer(time.Hour)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			h.accepted <- struct{}{}
			io.Copy(io.Discard, c)
			c.Close()
			h.drained <- struct{}{}
		}
	}()
	// Open the pooled transport with a first session, outside any span.
	h.transport, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	if err := h.session(h.transport, nil, handoffFlags); err != nil {
		h.close()
		return nil, err
	}
	return h, h.endSession()
}

// session sends one handoff header and waits until the listener's Accept
// has returned it.
func (h *handoffHarness) session(c net.Conn, head []byte, flags byte) error {
	if err := handoff.Send(c, "127.0.0.1:1", head, flags); err != nil {
		return err
	}
	h.timeout.Reset(5 * time.Second)
	select {
	case <-h.accepted:
		return nil
	case <-h.timeout.C:
		return errors.New("handoff listener did not accept")
	}
}

// endSession returns the pooled transport to handshake state and waits
// for the back-end side to get there.
func (h *handoffHarness) endSession() error {
	if err := handoff.NewSessionWriter(h.transport).End(); err != nil {
		return err
	}
	<-h.drained
	return nil
}

// pooled is one session-framed header on the open transport.
func (h *handoffHarness) pooled(s *stager, head []byte) error {
	var err error
	s.timed("handoff.pooled_send", func() { err = h.session(h.transport, head, handoffFlags) })
	if err != nil {
		return err
	}
	return h.endSession()
}

// dial is a fresh connection and a v1 header, the pool-miss path.
func (h *handoffHarness) dial(s *stager, head []byte) error {
	var c net.Conn
	var err error
	s.timed("handoff.dial_send", func() {
		if c, err = net.Dial("tcp", h.ln.Addr().String()); err == nil {
			err = h.session(c, head, handoff.FlagRehandoff)
		}
	})
	if c != nil {
		c.Close()
	}
	if err != nil {
		return err
	}
	<-h.drained
	return nil
}

func (h *handoffHarness) close() {
	if h.transport != nil {
		h.transport.Close()
	}
	h.ln.Close()
}

// relayHarness is the relay's two sockets: a "back end" that writes a
// canned response of a given size, and a "client" that reads what the
// relay wrote and throws it away. A response that fits the socket
// buffers is written before the relay starts and read after it returns,
// so the span holds the relay's own work and no other goroutine's
// wake-up; a larger one is written and read by two goroutines while the
// relay runs, as it must be.
type relayHarness struct {
	beWrite  net.Conn // the canned back end writes here
	beRead   net.Conn // the relay reads here
	beBr     *bufio.Reader
	toClient net.Conn // the relay writes here
	client   net.Conn // the client reads here

	body   []byte // shared content; only its length matters to the relay
	head   []byte // scratch for the response head
	feed   chan int64
	drain  chan int64
	done   chan error
	headRd bytes.Reader
	headBr *bufio.Reader
}

// inlineLimit is the largest response that goes through the sockets
// without a concurrent reader.
const inlineLimit = 64 << 10

func newRelayHarness() (*relayHarness, error) {
	h := &relayHarness{
		feed: make(chan int64), drain: make(chan int64), done: make(chan error),
		headBr: bufio.NewReaderSize(nil, 4<<10),
	}
	var err error
	if h.beWrite, h.beRead, err = tcpPair(); err != nil {
		return nil, err
	}
	if h.toClient, h.client, err = tcpPair(); err != nil {
		h.close()
		return nil, err
	}
	h.beBr = bufio.NewReaderSize(h.beRead, 16<<10)
	go func() {
		for size := range h.feed {
			_, err := h.beWrite.Write(h.body[:size])
			h.done <- err
		}
	}()
	go func() {
		for n := range h.drain {
			_, err := io.CopyN(io.Discard, h.client, n)
			h.done <- err
		}
	}()
	return h, nil
}

// relay times httprelay.RelayResponseFrom on a canned 200 with size body
// bytes, and the response head's parse on its own.
func (h *relayHarness) relay(s *stager, size int64) (int64, error) {
	if int64(len(h.body)) < size {
		h.body = make([]byte, size)
	}
	h.head = append(h.head[:0], "HTTP/1.1 200 OK\r\nContent-Length: "...)
	h.head = strconv.AppendInt(h.head, size, 10)
	h.head = append(h.head, "\r\nContent-Type: application/octet-stream\r\nX-Cache: HIT\r\n\r\n"...)
	total := int64(len(h.head)) + size

	var err error
	s.timed("httprelay.read_response_head", func() {
		h.headRd.Reset(h.head)
		h.headBr.Reset(&h.headRd)
		_, err = httprelay.ReadResponseHead(h.headBr, maxHeadBytes)
	})
	if err != nil {
		return 0, err
	}

	if _, err := h.beWrite.Write(h.head); err != nil {
		return 0, err
	}
	inline := size <= inlineLimit
	if inline {
		_, err = h.beWrite.Write(h.body[:size])
	} else {
		h.feed <- size
		h.drain <- total
	}
	if err != nil {
		return 0, err
	}
	t0 := sinceEpoch()
	n, _, err := httprelay.RelayResponseFrom(h.toClient, h.beBr, h.beRead, "GET", maxHeadBytes, nil)
	t1 := sinceEpoch()
	s.add("httprelay.relay_response", t0, t1)
	if inline {
		if _, derr := io.CopyN(io.Discard, h.client, n); err == nil {
			err = derr
		}
	} else {
		for range 2 {
			if derr := <-h.done; err == nil {
				err = derr
			}
		}
	}
	if err == nil && n != total {
		err = fmt.Errorf("relayed %d bytes of %d", n, total)
	}
	return t1 - t0, err
}

func (h *relayHarness) close() {
	for _, c := range []net.Conn{h.beWrite, h.beRead, h.toClient, h.client} {
		if c != nil {
			c.Close()
		}
	}
	close(h.feed)
	close(h.drain)
}
