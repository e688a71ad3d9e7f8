package backend

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lard/internal/trace"
)

func testStore() *DocStore {
	return NewDocStore([]trace.Target{
		{Name: "/a.html", Size: 1000},
		{Name: "/b.html", Size: 2000},
		{Name: "/big.bin", Size: 300000},
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServeDocumentContent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/a.html")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body) != 1000 {
		t.Fatalf("body length %d, want 1000", len(body))
	}
	if !bytes.Equal(body, ContentBytes("/a.html", 1000)) {
		t.Fatal("content mismatch with deterministic generator")
	}
}

func TestCacheHitMissHeaders(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL+"/a.html")
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	resp, _ = get(t, ts.URL+"/a.html")
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q", got)
	}
	st := srv.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The handler counts the bytes after the copy returns, which the
	// client's read of the body does not wait for.
	for deadline := time.Now().Add(time.Second); st.BytesSent != 2000; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("BytesSent = %d", st.BytesSent)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNotFound(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL+"/missing.html")
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if srv.Stats().NotFound != 1 {
		t.Fatalf("stats %+v", srv.Stats())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/a.html", "text/plain", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestDiskDelayOnMissOnly(t *testing.T) {
	var slept []time.Duration
	var mu sync.Mutex
	cfg := Config{
		DiskTimeScale: 1.0,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	}
	_, ts := newTestServer(t, cfg)
	get(t, ts.URL+"/a.html")
	get(t, ts.URL+"/a.html")
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1 (miss only)", len(slept))
	}
	// A 1000-byte file: 28ms + one 4KB transfer unit = 28.41ms.
	if slept[0] != 28*time.Millisecond+410*time.Microsecond {
		t.Fatalf("slept %v", slept[0])
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	cfg := Config{CacheBytes: 2500} // holds a+b but not big
	srv, ts := newTestServer(t, cfg)
	get(t, ts.URL+"/a.html")
	get(t, ts.URL+"/b.html")
	get(t, ts.URL+"/big.bin") // too large to cache at all
	st := srv.Stats()
	if st.CacheUsed > 2500 {
		t.Fatalf("cache used %d over capacity", st.CacheUsed)
	}
	resp, _ := get(t, ts.URL+"/big.bin")
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatal("uncacheable object reported HIT")
	}
}

func TestHeadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Head(ts.URL + "/b.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != 2000 {
		t.Fatalf("ContentLength = %d", resp.ContentLength)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/a.html")
	resp, body := get(t, ts.URL+"/_lard/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"requests":`)) {
		t.Fatalf("stats body: %s", body)
	}
}

func TestLRUPolicyOption(t *testing.T) {
	srv, ts := newTestServer(t, Config{UseLRU: true, CacheBytes: 1 << 20})
	get(t, ts.URL+"/a.html")
	get(t, ts.URL+"/a.html")
	if srv.Stats().Hits != 1 {
		t.Fatalf("stats %+v", srv.Stats())
	}
}

// TestDefaultPolicyCountsHits: the default cache is GDS-Frequency — a
// document with several hits survives a run of same-sized documents asked
// for once each, which flushes an LRU — UseLRU still selects LRU, and
// X-Cache and Stats report the same hits and misses either way.
func TestDefaultPolicyCountsHits(t *testing.T) {
	targets := []trace.Target{{Name: "/hot", Size: 1000}}
	for i := 0; i < 10; i++ {
		targets = append(targets, trace.Target{Name: fmt.Sprintf("/once%d", i), Size: 1000})
	}
	for _, tc := range []struct {
		name   string
		useLRU bool
		last   string // X-Cache of /hot after the scan
	}{{"default", false, "HIT"}, {"lru", true, "MISS"}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Store: NewDocStore(targets), CacheBytes: 3000, UseLRU: tc.useLRU})
			var hits, misses uint64
			fetch := func(name string) string {
				resp, _ := get(t, ts.URL+name)
				x := resp.Header.Get("X-Cache")
				if x == "HIT" {
					hits++
				} else {
					misses++
				}
				return x
			}
			for i := 0; i < 5; i++ {
				fetch("/hot")
			}
			for _, tg := range targets[1:] {
				fetch(tg.Name)
			}
			if got := fetch("/hot"); got != tc.last {
				t.Fatalf("/hot after the scan: X-Cache %s, want %s", got, tc.last)
			}
			st := srv.Stats()
			if st.Hits != hits || st.Misses != misses || st.Requests != hits+misses || st.CacheUsed > 3000 {
				t.Fatalf("stats %+v; X-Cache said %d hits, %d misses", st, hits, misses)
			}
		})
	}
}

func TestDocStoreBasics(t *testing.T) {
	s := testStore()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if size, ok := s.Size("/a.html"); !ok || size != 1000 {
		t.Fatalf("Size = %d, %v", size, ok)
	}
	if _, ok := s.Size("/zzz"); ok {
		t.Fatal("phantom target")
	}
	s.Add("/new", 77)
	if size, _ := s.Size("/new"); size != 77 {
		t.Fatal("Add failed")
	}
	targets := s.Targets()
	if len(targets) != 4 || targets[0].Name != "/a.html" {
		t.Fatalf("Targets = %v", targets)
	}
}

func TestContentDeterministicAndDistinct(t *testing.T) {
	a1 := ContentBytes("/x", 256)
	a2 := ContentBytes("/x", 256)
	b := ContentBytes("/y", 256)
	if !bytes.Equal(a1, a2) {
		t.Fatal("content not deterministic")
	}
	if bytes.Equal(a1, b) {
		t.Fatal("different targets share content")
	}
}

func TestContentReaderExactLengths(t *testing.T) {
	f := func(size uint16) bool {
		data, err := io.ReadAll(ContentReader("/t", int64(size)))
		return err == nil && len(data) == int(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestContentReaderMatchesBlockGenerator holds the reader's doubling fill
// to the definition of the content — byte i of a document is byte i%64
// of its block — for sizes and Read buffer lengths that straddle block
// boundaries, read at odd offsets across successive Reads.
func TestContentReaderMatchesBlockGenerator(t *testing.T) {
	block := contentBlock("/t")
	for _, size := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 8192, 8193, 70000} {
		want := make([]byte, size)
		for i := range want {
			want[i] = block[i%len(block)]
		}
		for _, bufLens := range [][]int{{1}, {7}, {63}, {64}, {65}, {100, 3, 129}, {4096}, {1, 8191, 64, 33}, {1 << 17}} {
			r := ContentReader("/t", int64(size))
			var got []byte
			for i := 0; ; i++ {
				buf := make([]byte, bufLens[i%len(bufLens)])
				n, err := r.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil || n == 0 {
					t.Fatalf("size %d, buffers %v: Read = %d, %v", size, bufLens, n, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d, buffers %v: content differs from the block generator (%d bytes read)", size, bufLens, len(got))
			}
		}
	}
}

func TestNewPanicsWithoutStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}
