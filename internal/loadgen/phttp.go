package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/httprelay"
	"lard/internal/trace"
)

// This file is the P-HTTP client mode: the paper's Section 5 workload
// where "clients use persistent connections" and the interesting policy
// question is how many requests ride on each connection before it closes.
// Instead of net/http's opaque pooling, each simulated client speaks raw
// HTTP/1.1 over its own TCP connection, issues a bounded number of
// requests drawn from the configured distribution, and closes — framing
// every response through internal/httprelay, the same code the front
// end's relay uses.

// ConnDist names for Config.ConnDist, shared with the simulator so the
// phttp experiment's modelled workload matches the live one.
const (
	ConnDistFixed     = trace.ConnDistFixed
	ConnDistGeometric = trace.ConnDistGeometric
)

// connLenDraw is trace.ConnLenDraw with loadgen-flavoured errors.
func connLenDraw(dist string, mean int, rng *rand.Rand) (func() int, error) {
	draw, err := trace.ConnLenDraw(dist, mean, rng)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	return draw, nil
}

// runPHTTP drives the raw persistent-connection client mode.
func runPHTTP(ctx context.Context, cfg Config, clients, total int, timeout time.Duration, pace *pacer) (Stats, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return Stats{}, fmt.Errorf("loadgen: bad BaseURL: %w", err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return Stats{}, fmt.Errorf("loadgen: P-HTTP mode needs an http://host:port BaseURL, got %q", cfg.BaseURL)
	}
	host := u.Host
	// Honor a BaseURL path prefix exactly like the net/http mode, which
	// fetches cfg.BaseURL+target.
	prefix := strings.TrimSuffix(u.Path, "/")
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	sources, _ := sourceIPs(cfg.SourceAddrs)

	var (
		cursor  atomic.Int64
		nOK     atomic.Uint64
		nErr    atomic.Uint64
		nShed   atomic.Uint64
		nShedRA atomic.Uint64
		nBytes  atomic.Int64
		latMu   sync.Mutex
		latAll  []time.Duration
		wg      sync.WaitGroup
		started = time.Now()
	)
	counts := &phttpCounts{nBytes: &nBytes, nShed: &nShed, nShedRA: &nShedRA}

	worker := func(id int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + int64(id)))
		draw, _ := connLenDraw(cfg.ConnDist, cfg.ReqsPerConn, rng)
		var local *net.TCPAddr
		if len(sources) > 0 {
			local = &net.TCPAddr{IP: sources[id%len(sources)]}
		}
		lats := make([]time.Duration, 0, 1024)
		for ctx.Err() == nil {
			// Claim up to one connection's worth of requests.
			k := int64(draw())
			first := cursor.Add(k) - k
			if first >= int64(total) {
				break
			}
			if first+k > int64(total) {
				k = int64(total) - first
			}
			n, nerr, connLats := runConn(ctx, cfg, host, prefix, first, int(k), timeout, local, counts, pace)
			nOK.Add(n)
			nErr.Add(nerr)
			lats = append(lats, connLats...)
		}
		latMu.Lock()
		latAll = append(latAll, lats...)
		latMu.Unlock()
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go worker(c)
	}
	wg.Wait()

	st := Stats{
		Requests:        nOK.Load(),
		Errors:          nErr.Load(),
		Sheds:           nShed.Load(),
		RetryAfterSheds: nShedRA.Load(),
		BytesRead:       nBytes.Load(),
		Elapsed:         time.Since(started),
	}
	if st.Elapsed > 0 {
		st.Throughput = float64(st.Requests) / st.Elapsed.Seconds()
	}
	summarizeLatencies(&st, latAll)
	return st, nil
}

// phttpCounts bundles the run-wide atomic tallies runConn feeds.
type phttpCounts struct {
	nBytes  *atomic.Int64
	nShed   *atomic.Uint64
	nShedRA *atomic.Uint64
}

// runConn issues requests [first, first+k) of the trace on one persistent
// connection, reconnecting if the server closes early. It returns the
// success and error counts plus per-request latencies. local, when
// non-nil, binds the connection's source address (client identity).
func runConn(ctx context.Context, cfg Config, host, prefix string, first int64, k int, timeout time.Duration, local *net.TCPAddr, counts *phttpCounts, pace *pacer) (uint64, uint64, []time.Duration) {
	var ok, nerr uint64
	lats := make([]time.Duration, 0, k)
	nBytes := counts.nBytes

	var conn net.Conn
	var br *bufio.Reader
	dial := func() error {
		d := net.Dialer{Timeout: timeout, LocalAddr: local}
		var err error
		conn, err = d.Dial("tcp", host)
		if err != nil {
			return err
		}
		br = httprelay.GetReader(conn)
		return nil
	}
	// drop ends the current connection; its reader goes back to the pool
	// (this goroutine is its only user).
	drop := func() {
		conn.Close()
		conn = nil
		httprelay.PutReader(br)
		br = nil
	}
	defer func() {
		if conn != nil {
			drop()
		}
	}()

	for j := 0; j < k; j++ {
		pace.wait(ctx, first+int64(j))
		if ctx.Err() != nil {
			break
		}
		if conn == nil {
			if err := dial(); err != nil {
				if ctx.Err() != nil {
					break // cut off by the run deadline, not failed
				}
				nerr += uint64(k - j) // the rest of this connection is lost
				return ok, nerr, lats
			}
		}
		r := cfg.Trace.At(int((first + int64(j)) % int64(cfg.Trace.Len())))
		t0 := time.Now()
		if sched, paced := pace.due(first + int64(j)); paced && sched.Before(t0) {
			t0 = sched
		}
		conn.SetDeadline(time.Now().Add(timeout))
		// The final request announces the close, as a polite client does.
		connHdr := ""
		if j == k-1 {
			connHdr = "Connection: close\r\n"
		}
		if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\n%s\r\n", prefix+r.Target, host, connHdr); err != nil {
			if ctx.Err() != nil {
				break
			}
			nerr++
			drop()
			continue
		}
		h, err := httprelay.ReadResponseHead(br, 64<<10)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			nerr++
			drop()
			continue
		}
		// h.Raw is a view of br's window: read it before the body is.
		retryAfter := h.Status == 429 && bytes.Contains(bytes.ToLower(h.Raw), []byte("retry-after:"))
		n, reusable, err := httprelay.CopyResponseBody(io.Discard, br, h, "GET")
		nBytes.Add(n)
		if err == nil && h.Status == 429 {
			// Quota shed: counted separately, neither goodput nor error.
			counts.nShed.Add(1)
			if retryAfter {
				counts.nShedRA.Add(1)
			}
			if !reusable {
				drop()
			}
			continue
		}
		if err != nil || h.Status != 200 {
			if err != nil && ctx.Err() != nil {
				break // copy cut off by the run deadline, not failed
			}
			nerr++
			drop()
			continue
		}
		ok++
		lats = append(lats, time.Since(t0))
		if !reusable {
			drop()
		}
	}
	return ok, nerr, lats
}
