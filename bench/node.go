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
	"runtime"
	"strconv"
	"syscall"
	"time"

	"lard/internal/backend"
	"lard/internal/breaker"
	"lard/internal/cluster"
	"lard/internal/frontend"
	"lard/internal/handoff"
	"lard/internal/trace"
)

// nodeConfig tells a node which role to play. It is everything a child
// process learns about the run: the generated catalog and the cluster
// shape, never the seed.
type nodeConfig struct {
	Role string // "fe", "be", "canned" or "plain"

	// Back places a child with the back ends, not with the front end.
	Back bool `json:",omitempty"`

	// be and canned: the documents served.
	Targets []trace.Target `json:",omitempty"`

	// be: fleet shape. canned: the fleet whose caches and disk it models.
	Nodes         int     `json:",omitempty"`
	CacheBytes    int64   `json:",omitempty"`
	DiskTimeScale float64 `json:",omitempty"`

	// fe: where to hand off and how. plain: where to forward.
	Backends   []string `json:",omitempty"`
	Strategy   string   `json:",omitempty"`
	ConnPolicy string   `json:",omitempty"`
	Overload   bool     `json:",omitempty"`
}

// snapshot is a node's answer to a control request: its public counters
// and its own process accounting, so the front end's CPU and allocations
// are the front end's alone.
type snapshot struct {
	FE       *frontend.Stats `json:",omitempty"`
	InFlight int             // fe: dispatcher slots claimed and not released
	BE       []backend.Stats `json:",omitempty"`
	Sessions []uint64        `json:",omitempty"` // be: handed-off sessions accepted per listener

	CPUUserUs  int64
	CPUSysUs   int64
	PeakRSSKB  int64
	Mallocs    uint64
	AllocBytes uint64
	GCPauseNs  uint64
}

func (s snapshot) cpuUs() int64 { return s.CPUUserUs + s.CPUSysUs }

// node is a running fe, be fleet or canned server, in this process or in
// a child.
type node interface {
	Addrs() []string
	Snapshot() (snapshot, error)
	Close() error
}

// startLocal runs a node's role in this process.
func startLocal(cfg nodeConfig) (node, error) {
	switch cfg.Role {
	case "fe":
		return startFE(cfg)
	case "be":
		return startBE(cfg)
	case "canned":
		return startCanned(cfg)
	case "plain":
		return startPlain(cfg)
	}
	return nil, fmt.Errorf("unknown role %q", cfg.Role)
}

// processSnapshot fills the process-wide half of a snapshot.
func processSnapshot() snapshot {
	var s snapshot
	s.CPUUserUs, s.CPUSysUs = cpuTimesUs()
	s.PeakRSSKB = vmHWM()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.Mallocs, s.AllocBytes, s.GCPauseNs = m.Mallocs, m.TotalAlloc, m.PauseTotalNs
	return s
}

// cpuTimesUs returns this process's user and system CPU time.
func cpuTimesUs() (user, sys int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Sec*1e6 + int64(ru.Utime.Usec), ru.Stime.Sec*1e6 + int64(ru.Stime.Usec)
}

// vmHWM reads this process's peak resident set. ru_maxrss would not do:
// a child started with vfork inherits the parent's high-water mark.
func vmHWM() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, _ := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
			return kb
		}
	}
	return 0
}

// feNode is the front end under test: frontend.New(...).Serve, nothing
// added.
type feNode struct {
	srv *frontend.Server
	ln  net.Listener
}

func startFE(cfg nodeConfig) (node, error) {
	fc := frontend.Config{
		Backends:   cfg.Backends,
		Strategy:   cfg.Strategy,
		Shards:     1,
		ConnPolicy: cfg.ConnPolicy,
	}
	if cfg.Overload {
		// A quota no single client reaches and default breakers: both
		// layers run on every request, neither ever sheds.
		fc.QuotaRate = 1e6
		fc.Breaker = &breaker.Config{}
	}
	srv, err := frontend.New(fc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return &feNode{srv: srv, ln: ln}, nil
}

func (n *feNode) Addrs() []string { return []string{n.ln.Addr().String()} }

func (n *feNode) Snapshot() (snapshot, error) {
	s := processSnapshot()
	st := n.srv.Stats()
	s.FE = &st
	s.InFlight = n.srv.Dispatcher().InFlight()
	return s, nil
}

func (n *feNode) Close() error { return n.srv.Close() }

// beNode is the back-end fleet: per node the prototype stack, a handoff
// listener feeding an unmodified net/http server. The fleet shares one
// process so that its CPU is one number and the host's second core is
// not split five ways.
type beNode struct {
	bes  []*backend.Server
	lns  []*handoff.Listener
	srvs []*http.Server
}

func startBE(cfg nodeConfig) (node, error) {
	n := &beNode{}
	store := backend.NewDocStore(cfg.Targets)
	for i := 0; i < cfg.Nodes; i++ {
		be := backend.New(backend.Config{
			Store:         store,
			CacheBytes:    cfg.CacheBytes,
			DiskTimeScale: cfg.DiskTimeScale,
		})
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.Close()
			return nil, err
		}
		srv := &http.Server{Handler: be.Handler()}
		go srv.Serve(ln)
		n.bes, n.lns, n.srvs = append(n.bes, be), append(n.lns, ln), append(n.srvs, srv)
	}
	return n, nil
}

func (n *beNode) Addrs() []string {
	var out []string
	for _, ln := range n.lns {
		out = append(out, ln.Addr().String())
	}
	return out
}

func (n *beNode) Snapshot() (snapshot, error) {
	s := processSnapshot()
	for i, be := range n.bes {
		s.BE = append(s.BE, be.Stats())
		s.Sessions = append(s.Sessions, n.lns[i].Sessions())
	}
	return s, nil
}

func (n *beNode) Close() error {
	for _, srv := range n.srvs {
		srv.Close()
	}
	for _, ln := range n.lns {
		ln.Close()
	}
	return nil
}

// cannedNode answers every request with that document's prebuilt
// response and does nothing else: what the load generator can reach
// when the cluster costs nothing (loadgen.ceiling_rps), and the far end
// of the plain path. Where the workload has a disk, it has one too, with
// the placement no policy can beat: the most popular documents that fit
// in the fleet's caches together are answered at once, every other after
// the modelled read time. The plain path then waits where the cluster
// waits, and their ratio does not follow the host's speed.
type cannedNode struct {
	ln   net.Listener
	docs map[string]cannedDoc
}

type cannedDoc struct {
	response []byte
	wait     time.Duration
}

func startCanned(cfg nodeConfig) (node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &cannedNode{ln: ln, docs: make(map[string]cannedDoc, len(cfg.Targets))}
	room := int64(cfg.Nodes) * cfg.CacheBytes
	for _, t := range cfg.Targets { // most popular first
		d := cannedDoc{response: cannedResponse(t)}
		if room -= t.Size; room < 0 && cfg.DiskTimeScale > 0 {
			d.wait = time.Duration(float64(cluster.DefaultCostModel().DiskReadTime(t.Size)) * cfg.DiskTimeScale)
		}
		n.docs[t.Name] = d
	}
	go n.serve()
	return n, nil
}

// cannedResponse is a complete keep-alive 200 for the document.
func cannedResponse(t trace.Target) []byte {
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: application/octet-stream\r\n\r\n", t.Size)
	return append([]byte(head), backend.ContentBytes(t.Name, t.Size)...)
}

func (n *cannedNode) serve() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		go n.serveConn(c)
	}
}

func (n *cannedNode) serveConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		// "GET <target> HTTP/1.1": the target sits between the spaces.
		i := bytes.IndexByte(line, ' ')
		j := bytes.LastIndexByte(line, ' ')
		if i < 0 || j <= i {
			return
		}
		doc, ok := n.docs[string(line[i+1:j])]
		closing := false
		for {
			h, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(h) <= 2 {
				break
			}
			if bytes.HasPrefix(h, []byte("Connection: close")) {
				closing = true
			}
		}
		if !ok {
			return
		}
		if doc.wait > 0 {
			time.Sleep(doc.wait)
		}
		if _, err := c.Write(doc.response); err != nil || closing {
			return
		}
	}
}

func (n *cannedNode) Addrs() []string             { return []string{n.ln.Addr().String()} }
func (n *cannedNode) Snapshot() (snapshot, error) { return processSnapshot(), nil }
func (n *cannedNode) Close() error                { return n.ln.Close() }

// plainNode forwards requests to one upstream server and responses back,
// a connection upstream per client connection, and does nothing else: no
// dispatch, no handoff, no pool, none of the repository's packages. In
// front of a canned server it is the yardstick the cluster is measured
// against: the same processes, sockets and bytes with none of the code
// under test.
type plainNode struct {
	ln       net.Listener
	upstream string
}

func startPlain(cfg nodeConfig) (node, error) {
	if len(cfg.Backends) != 1 {
		return nil, fmt.Errorf("plain relay needs one upstream, got %d", len(cfg.Backends))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &plainNode{ln: ln, upstream: cfg.Backends[0]}
	go n.serve()
	return n, nil
}

func (n *plainNode) serve() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		go n.serveConn(c)
	}
}

func (n *plainNode) serveConn(c net.Conn) {
	defer c.Close()
	up, err := net.Dial("tcp", n.upstream)
	if err != nil {
		return
	}
	defer up.Close()
	cbr := bufio.NewReaderSize(c, 4<<10)
	ubr := bufio.NewReaderSize(up, 16<<10)
	buf := make([]byte, 64<<10)
	for {
		// The request head, forwarded as it came.
		head, _, err := readHead(cbr, buf[:0])
		if err != nil {
			return
		}
		if _, err := up.Write(head); err != nil {
			return
		}
		// The response: the head and as much of the body as the buffer
		// holds in one write, the rest buffer by buffer.
		head, left, err := readHead(ubr, buf[:0])
		if err != nil || left < 0 {
			return
		}
		m := len(head)
		for {
			k, err := io.ReadFull(ubr, buf[m:m+int(min(int64(len(buf)-m), left))])
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:m+k]); err != nil {
				return
			}
			if left -= int64(k); left == 0 {
				break
			}
			m = 0
		}
	}
}

// readHead appends one message head, blank line included, to dst and
// returns it with the Content-Length it declares, -1 if it declares none.
func readHead(br *bufio.Reader, dst []byte) ([]byte, int64, error) {
	length := int64(-1)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, 0, err
		}
		dst = append(dst, line...)
		if len(line) <= 2 {
			return dst, length, nil
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.ParseInt(string(v), 10, 64); err != nil {
				return nil, 0, err
			}
		}
	}
}

func (n *plainNode) Addrs() []string             { return []string{n.ln.Addr().String()} }
func (n *plainNode) Snapshot() (snapshot, error) { return processSnapshot(), nil }
func (n *plainNode) Close() error                { return n.ln.Close() }

// childEnv marks a re-executed copy of this binary as a node.
const childEnv = "LARD_BENCH_CHILD"

// childMain is the whole life of a child: read one config line, start
// the role, report the addresses, then answer each line on stdin with a
// snapshot line until stdin closes.
func childMain() error {
	in := bufio.NewReader(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	line, err := in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading config: %w", err)
	}
	var cfg nodeConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fmt.Errorf("decoding config: %w", err)
	}
	n, err := startLocal(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	if err := out.Encode(n.Addrs()); err != nil {
		return err
	}
	for {
		if _, err := in.ReadBytes('\n'); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		s, err := n.Snapshot()
		if err != nil {
			return err
		}
		if err := out.Encode(s); err != nil {
			return err
		}
	}
}

// childCPU places the children: the front end (or what stands in for
// it) alone on the first processor this process may use, the back ends
// (or what stands in for them) on the second. The generator stays
// unpinned. With every process floating, the scheduler wanders between
// placements and the numbers with it (README.md, One run).
func childCPU(back bool) int {
	cpus := allowedCPUs()
	switch {
	case len(cpus) < 2:
		return -1
	case back:
		return cpus[1]
	}
	return cpus[0]
}

// procNode is a node in a child process: this binary re-executed with
// one scheduler thread, driven over its stdin and stdout.
type procNode struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *json.Decoder
	addrs []string
}

func startChild(cfg nodeConfig) (node, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(cmd, childCPU(cfg.Back)); err != nil {
		return nil, err
	}
	n := &procNode{cmd: cmd, in: in, out: json.NewDecoder(outPipe)}
	if err := json.NewEncoder(in).Encode(cfg); err != nil {
		n.Close()
		return nil, fmt.Errorf("%s child: sending config: %w", cfg.Role, err)
	}
	if err := n.out.Decode(&n.addrs); err != nil {
		n.Close()
		return nil, fmt.Errorf("%s child: reading addresses: %w", cfg.Role, err)
	}
	return n, nil
}

func (n *procNode) Addrs() []string { return n.addrs }

func (n *procNode) Snapshot() (snapshot, error) {
	var s snapshot
	if _, err := io.WriteString(n.in, "snapshot\n"); err != nil {
		return s, err
	}
	err := n.out.Decode(&s)
	return s, err
}

// Close ends the child by closing its stdin and waits for it; a child
// that does not leave within five seconds is killed.
func (n *procNode) Close() error {
	n.in.Close()
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-done
		return errors.New("child killed after it ignored end of input")
	}
}
