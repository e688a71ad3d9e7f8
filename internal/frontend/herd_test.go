package frontend

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lard/internal/loadgen"
)

// TestHerdE2E is the thundering-herd proof of the overload-protection
// layer: a quota-protected cluster is offered 10× a modest rate, almost
// all of the excess from one abusive client identity. The front end's
// per-client-IP quota must shed the abuser (429 + Retry-After on every
// shed) while the well-behaved cohort, each client comfortably inside
// its quota, keeps at least 90% of its requests succeeding.
//
// Client identities are loopback source IPs: the well-behaved cohort
// binds 127.0.1.1..127.0.1.4 and the abuser 127.0.2.1, all unprivileged
// binds on Linux, so the quota (keyed by remote IP) sees distinct
// clients on one machine.
func TestHerdE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("herd e2e needs a few wall seconds")
	}
	const (
		rate        = 400.0 // far below loopback capacity: the quota, not saturation, is under test
		wellRate    = rate / 2
		abuserRate  = 10*rate - wellRate
		wellClients = 4
		window      = 1500 * time.Millisecond
		goodputBar  = 0.90
	)
	tr := smallTrace(t, 32, 256)
	mc := startCluster(t, 2, "lard/r", tr, 64<<20, func(c *Config) {
		// 2× each well-behaved client's offered rate, so pacing jitter
		// never sheds one, while the abuser is capped to a sliver of it.
		c.QuotaRate = 2 * wellRate / wellClients
	})

	run := func(rate float64, clients, reqsPerConn int, sources []string) (loadgen.Stats, error) {
		return loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:     "http://" + mc.feAddr,
			Trace:       tr,
			Clients:     clients,
			Rate:        rate,
			Duration:    window,
			Requests:    int(rate*window.Seconds()) + clients,
			KeepAlive:   true,
			ReqsPerConn: reqsPerConn,
			Timeout:     window + 5*time.Second,
			SourceAddrs: sources,
		})
	}
	var wellIDs []string
	for i := 1; i <= wellClients; i++ {
		wellIDs = append(wellIDs, fmt.Sprintf("127.0.1.%d", i))
	}
	var (
		well, abuser       loadgen.Stats
		wellErr, abuserErr error
		wg                 sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		well, wellErr = run(wellRate, wellClients, 0, wellIDs)
	}()
	go func() {
		defer wg.Done()
		// The abuser hammers over many connections (a real abusive client
		// is not polite enough to serialize), all from one identity.
		abuser, abuserErr = run(abuserRate, 16, 8, []string{"127.0.2.1"})
	}()
	wg.Wait()
	if wellErr != nil || abuserErr != nil {
		t.Fatal(wellErr, abuserErr)
	}

	fraction := func(part uint64, st loadgen.Stats) float64 {
		if total := st.Requests + st.Errors + st.Sheds; total > 0 {
			return float64(part) / float64(total)
		}
		return 0
	}
	t.Logf("well: %v\nabuser: %v", well, abuser)
	if well.Requests == 0 || abuser.Requests+abuser.Sheds == 0 {
		t.Fatalf("cohorts issued nothing: well %+v, abuser %+v", well, abuser)
	}
	if g := fraction(well.Requests, well); g < goodputBar {
		t.Fatalf("well-behaved goodput %.3f under the %.2f bar: %+v", g, goodputBar, well)
	}
	if abuser.Sheds == 0 {
		t.Fatalf("abuser never shed: %+v", abuser)
	}
	if abuser.RetryAfterSheds != abuser.Sheds {
		t.Fatalf("sheds without Retry-After: %d of %d", abuser.Sheds-abuser.RetryAfterSheds, abuser.Sheds)
	}
	// The abuser must end up mostly shed: its offered rate is many times
	// its quota.
	if f := fraction(abuser.Sheds, abuser); f < 0.5 {
		t.Fatalf("abuser shed fraction %.3f, want most of its traffic shed", f)
	}
	if mc.fe.Stats().QuotaSheds == 0 {
		t.Fatal("front end counted no quota sheds")
	}
	var buf strings.Builder
	if err := mc.fe.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `lard_fe_sheds_total{reason="quota"}`) && !strings.HasSuffix(line, " 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics missing a nonzero quota shed series:\n%s", buf.String())
	}
}
