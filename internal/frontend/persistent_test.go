package frontend

import (
	"context"
	"net"
	"net/http"
	"testing"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/loadgen"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// TestPersistentConnectionPolicy addresses the paper's open question
// (Section 5): "The protocol allows the front end to either let one back
// end serve all of the requests on a persistent connection or to hand off
// a connection multiple times ... However, further research is needed to
// determine the appropriate policy."
//
// This experiment runs both policies under keep-alive clients and
// measures the locality each achieves: whole-connection handoff dispatches
// once per connection, so a client's mixed targets land on one back end
// and cache partitioning degrades toward WRR; per-request re-handoff
// preserves LARD's locality at the cost of extra dispatch work.
func TestPersistentConnectionPolicy(t *testing.T) {
	cfg := trace.SyntheticConfig{
		Name:         "persistent",
		Targets:      90,
		Requests:     900,
		DataSetBytes: 90 * 4096,
		ZipfAlpha:    0.7,
		SizeSigma:    0.3,
		MinFileBytes: 1024,
	}
	tr := trace.MustGenerate(cfg, 123)
	perNodeCache := int64(30 * 4096) // each node caches 1/3 of the catalog

	hitRatio := func(policy string) float64 {
		store := backend.NewDocStore(tr.Targets)
		var addrs []string
		var nodes []*backend.Server
		for i := 0; i < 3; i++ {
			be := backend.New(backend.Config{Store: store, CacheBytes: perNodeCache})
			ln, err := handoff.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: be.Handler()}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close(); ln.Close() })
			addrs = append(addrs, ln.Addr().String())
			nodes = append(nodes, be)
		}
		fe, err := New(Config{
			Backends:   addrs,
			Strategy:   "lard",
			ConnPolicy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go fe.Serve(ln)
		t.Cleanup(func() { fe.Close() })

		// Keep-alive clients: few connections, many requests each.
		st, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:   "http://" + ln.Addr().String(),
			Trace:     tr,
			Clients:   4,
			KeepAlive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Errors > 0 {
			t.Fatalf("loadgen errors: %d", st.Errors)
		}
		var hits, reqs uint64
		for _, be := range nodes {
			s := be.Stats()
			hits += s.Hits
			reqs += s.Requests
		}
		if reqs == 0 {
			t.Fatal("no requests reached back ends")
		}
		return float64(hits) / float64(reqs)
	}

	whole := hitRatio(lard.ConnPin)
	perRequest := hitRatio(lard.ConnPerRequest)
	t.Logf("persistent-connection policy: whole-connection hit ratio %.3f, per-request re-handoff %.3f",
		whole, perRequest)
	// Re-handoff must restore a substantial share of LARD's locality.
	if perRequest <= whole {
		t.Fatalf("per-request re-handoff (%.3f) did not beat whole-connection handoff (%.3f) under keep-alive clients",
			perRequest, whole)
	}
}
