package frontend

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"testing"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// BenchmarkHandoffDial measures the front end's cost of establishing one
// handed-off session and relaying its response — the hot path the
// paper's Section 5 budget (~300µs per handoff) is about — on the two
// sides of the connection pool:
//
//	fresh:  a pool miss — every handoff dials a new back-end TCP
//	        connection and sends the session-framed header on it;
//	        nothing is checked back in, so the next checkout misses too;
//	pooled: a pool hit — the handoff reuses the idle session-framed
//	        transport the previous iteration checked in; the dial was
//	        paid once, at pool fill.
//	pooled-close: the same, for a client that sent Connection: close.
//	        The front end consumes the option, so the back end keeps
//	        the transport open and the handoff is still a pool hit.
//	resume: a pool hit on the transport the same client connection
//	        parked — a move back to a node it has been on. The session
//	        there is still open, so the request is one data frame: no
//	        end-of-session record, no header, and no new net/http
//	        connection at the back end.
//	split:  pooled, for a client on a TCP socket: on this host the
//	        transport is a pass transport and every handoff a split
//	        session, as every same-host one is in a live front end.
//	        The header carries the socket, the back end writes the
//	        response to it, and the front end reads a done record.
//
// The other rows' client is no socket, so their headers, on the same pass
// transport, carry none. The back end serves a cached document with no
// emulated disk delay, so the difference between the variants is the dial
// + listener-handshake cost the pool amortizes. cpu-ns/op is the process's
// CPU per handoff, user and system, from getrusage: the front end's, the
// back end's and, on the split row, the client's reading.
func BenchmarkHandoffDial(b *testing.B) {
	cfg := trace.SyntheticConfig{
		Name:         "bench",
		Targets:      8,
		Requests:     8,
		DataSetBytes: 8 * 4096,
		ZipfAlpha:    0.8,
		SizeSigma:    0.1,
		MinFileBytes: 512,
	}
	tr := trace.MustGenerate(cfg, 42)
	store := backend.NewDocStore(tr.Targets)
	be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20, DiskTimeScale: 0})
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: be.Handler()}
	go srv.Serve(ln)
	defer func() { srv.Close(); ln.Close() }()

	const clientAddr = "192.0.2.1:4000"
	run := func(b *testing.B, checkIn bool, connection string, resume, split bool) {
		head := buildRequestHead(b, fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bench\r\n%s\r\n", tr.At(0).Target, connection))
		if head.Close {
			httprelay.BlankConnectionClose(head.Raw) // as handleConn does
		}
		s, err := New(Config{
			Backends:      []string{ln.Addr().String()},
			Strategy:      "wrr",
			ConnPolicy:    "perreq",
			probeInterval: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var sess *lard.Session // the client connection, when one stays to come back
		if resume {
			sess = s.d.NewSession(s.policy)
			defer sess.Close()
		}
		cc := &clientConn{addr: clientAddr, sess: sess}
		if split {
			client, accepted := loopbackPair(b)
			cc.Conn = accepted
			cc.rc, _ = clientSocket(accepted)
			go io.Copy(io.Discard, client)
		}
		b.ReportAllocs()
		cpu0 := processCPU(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bc, err := s.connectBackend(cc, 0, &head, false, false)
			if err != nil {
				b.Fatal(err)
			}
			var reusable bool
			if split {
				_, reusable, err = s.response(&writeTracker{w: io.Discard}, bc, "GET", nil)
			} else {
				_, reusable, err = httprelay.RelayResponse(io.Discard, bc.br, "GET", 64<<10, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
			bc.clean = checkIn && reusable
			s.releaseBackend(bc, sess)
		}
		b.StopTimer()
		b.ReportMetric(float64(processCPU(b)-cpu0)/float64(b.N), "cpu-ns/op")
		if split && s.Stats().Direct != uint64(b.N) {
			b.Fatalf("%d requests, %d answered directly", b.N, s.Stats().Direct)
		}
		// Every fresh iteration dialed; pooled dialed once, at pool fill,
		// and only a resume goes without a handoff header after that.
		wantMisses, wantResumes := uint64(b.N), uint64(0)
		if checkIn {
			wantMisses = 1
		}
		if resume {
			wantResumes = uint64(b.N) - 1
		}
		if st := s.Stats(); st.PoolMisses != wantMisses || st.SessionResumes != wantResumes || st.Handoffs != uint64(b.N)-wantResumes {
			b.Fatalf("%d requests: %d pool misses, %d resumes, %d handoffs; want %d, %d, %d",
				b.N, st.PoolMisses, st.SessionResumes, st.Handoffs, wantMisses, wantResumes, uint64(b.N)-wantResumes)
		}
	}

	b.Run("fresh", func(b *testing.B) { run(b, false, "", false, false) })
	b.Run("pooled", func(b *testing.B) { run(b, true, "", false, false) })
	b.Run("pooled-close", func(b *testing.B) { run(b, true, "Connection: close\r\n", false, false) })
	b.Run("resume", func(b *testing.B) { run(b, true, "", true, false) })
	b.Run("split", func(b *testing.B) { run(b, true, "", false, true) })
}

// processCPU is the process's CPU time so far, user and system, in ns.
func processCPU(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// loopbackPair is the two ends of a loopback TCP connection.
func loopbackPair(b *testing.B) (dialed net.Conn, accepted *net.TCPConn) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	a, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close(); a.Close() })
	return d, a.(*net.TCPConn)
}
