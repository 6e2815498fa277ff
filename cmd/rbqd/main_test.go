package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rbq"
	"rbq/internal/graph"
	"rbq/internal/server"
)

// writeGraphFile saves the small social graph (one CL node, id 3,
// matched by patText) to a temp file.
func writeGraphFile(t *testing.T) string { return writeGraphFileAs(t, (*rbq.DB).Save) }

func writeGraphFileAs(t *testing.T, save func(*rbq.DB, io.Writer) error) string {
	t.Helper()
	gb := rbq.NewGraphBuilder(8, 6)
	m := gb.AddNode("Michael")
	cc := gb.AddNode("CC")
	hg := gb.AddNode("HG")
	cl := gb.AddNode("CL")
	gb.AddEdge(m, cc)
	gb.AddEdge(m, hg)
	gb.AddEdge(cc, cl)
	gb.AddEdge(hg, cl)
	gb.AddNode("X")
	gb.AddNode("X")
	gb.AddNode("X")
	db := rbq.NewDB(gb.Build())
	path := filepath.Join(t.TempDir(), "g.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(db, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

const patText = "node 0 Michael*\nnode 1 CC\nnode 2 HG\nnode 3 CL!\nedge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\n"

// syncBuf is a bytes.Buffer safe to read while the daemon goroutine is
// still writing — tests that need live output (the pprof listener
// address) poll String() mid-run.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon body on a loopback port and returns its
// base URL and a stop function that triggers the graceful shutdown and
// reports the exit code and captured output.
func startDaemon(t *testing.T, args []string) (baseURL string, stop func() (int, string)) {
	base, stop, _ := startDaemonBuf(t, args)
	return base, stop
}

// startDaemonBuf is startDaemon exposing the live stdout buffer.
func startDaemonBuf(t *testing.T, args []string) (baseURL string, stop func() (int, string), out *syncBuf) {
	t.Helper()
	out = &syncBuf{}
	var errb syncBuf
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	rc := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), out, &errb, ready, shutdown)
	}()
	select {
	case addr := <-ready:
		baseURL = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	stopped := false
	var code int
	stop = func() (int, string) {
		if !stopped {
			stopped = true
			close(shutdown)
			wg.Wait()
			code = <-rc
		}
		return code, out.String() + errb.String()
	}
	t.Cleanup(func() { stop() })
	return baseURL, stop, out
}

func TestDaemonRoundTrip(t *testing.T) {
	g := writeGraphFile(t)
	base, stop := startDaemon(t, []string{"-graph", g, "-access-log", "-"})

	resp, err := http.Get(base + server.RouteHealth)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body, _ := json.Marshal(server.QueryRequest{Pattern: patText, Alpha: 0.9})
	resp, err = http.Post(base+server.RouteQuery, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(qr.Matches) != 1 || qr.Matches[0] != 3 {
		t.Fatalf("query: status %d, %+v", resp.StatusCode, qr)
	}
	if qr.Governance.EffectiveAlpha != 0.9 || !qr.Complete {
		t.Fatalf("governance: %+v complete=%v", qr.Governance, qr.Complete)
	}

	code, output := stop()
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}
	if !strings.Contains(output, "rbqd: stopped") {
		t.Fatalf("missing shutdown line:\n%s", output)
	}
	requireStartupLine(t, output, 7, 4, "fresh")
	// The access log recorded the query as a JSON line.
	if !strings.Contains(output, `"route":"/v1/query"`) {
		t.Fatalf("missing access log line:\n%s", output)
	}
}

// TestDaemonAccessLogCompleteAfterShutdown: the access log is written in
// batches, so the last requests before a shutdown are still in memory
// when the signal arrives — the drain must write them out before the
// daemon closes the file.
func TestDaemonAccessLogCompleteAfterShutdown(t *testing.T) {
	g := writeGraphFile(t)
	logPath := filepath.Join(t.TempDir(), "access.log")
	base, stop := startDaemon(t, []string{"-graph", g, "-access-log", logPath})

	body, _ := json.Marshal(server.QueryRequest{Pattern: patText, Alpha: 0.9})
	const n = 20
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, base+server.RouteQuery, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.RequestIDHeader, fmt.Sprintf("req-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	// Straight away: well inside the log's flush interval.
	if code, output := stop(); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d access-log lines after shutdown, want %d:\n%s", len(lines), n, data)
	}
	for i, line := range lines {
		var entry struct {
			RequestID string `json:"request_id"`
			Route     string `json:"route"`
			Code      int    `json:"code"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if entry.RequestID != fmt.Sprintf("req-%d", i) || entry.Route != server.RouteQuery || entry.Code != http.StatusOK {
			t.Fatalf("line %d = %s", i, line)
		}
	}
}

// TestDaemonDurableShutdownLosesNothing: every /v1/apply batch acked
// with 200 before a graceful shutdown must be present after reopening
// the database directory — the acceptance criterion for the drain path.
func TestDaemonDurableShutdownLosesNothing(t *testing.T) {
	g := writeGraphFile(t)
	dir := filepath.Join(t.TempDir(), "db")
	base, stop := startDaemon(t, []string{"-db", dir, "-graph", g, "-access-log", ""})

	const acked = 5
	for i := 0; i < acked; i++ {
		stream := fmt.Sprintf("node DURABLE-%d\napply\n", i)
		resp, err := http.Post(base+server.RouteApply, "text/plain", strings.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		var ar server.ApplyResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ar.Batches != 1 {
			t.Fatalf("apply %d: status %d, %+v", i, resp.StatusCode, ar)
		}
		if ar.DurableSeq == 0 {
			t.Fatalf("apply %d: ack carries no durable seq: %+v", i, ar)
		}
	}

	code, output := stop()
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}

	db, err := rbq.OpenDB(dir, rbq.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gph := db.Graph()
	if got, want := gph.NumNodes(), 7+acked; got != want {
		t.Fatalf("reopened nodes = %d, want %d — acked batches lost", got, want)
	}
	for i := 0; i < acked; i++ {
		if lbl := gph.Label(rbq.NodeID(7 + i)); lbl != fmt.Sprintf("DURABLE-%d", i) {
			t.Fatalf("node %d label = %q", 7+i, lbl)
		}
	}
}

// TestDaemonPprof: -debug-addr stands a live pprof surface on its own
// listener — the smoke test fetches the index and a goroutine profile
// from the running daemon.
func TestDaemonPprof(t *testing.T) {
	g := writeGraphFile(t)
	_, stop, out := startDaemonBuf(t, []string{"-graph", g, "-access-log", "", "-debug-addr", "127.0.0.1:0"})

	// The debug line is printed before the ready signal, so it is
	// already in the buffer.
	const marker = "rbqd: debug (pprof) listening on "
	stdout := out.String()
	i := strings.Index(stdout, marker)
	if i < 0 {
		t.Fatalf("no debug listener line in:\n%s", stdout)
	}
	addr := strings.TrimSpace(strings.SplitN(stdout[i+len(marker):], "\n", 2)[0])
	debugURL := "http://" + addr

	resp, err := http.Get(debugURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(index), "goroutine") {
		t.Fatalf("pprof index: %d\n%s", resp.StatusCode, index)
	}
	resp, err = http.Get(debugURL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(prof), "goroutine profile") {
		t.Fatalf("goroutine profile: %d\n%s", resp.StatusCode, prof)
	}

	if code, output := stop(); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}
}

// TestDaemonSlowQuery: -slow-query wires capture end to end — the log
// line lands on stdout and the ring serves it at /v1/debug/slow, joined
// to the response by the request id.
func TestDaemonSlowQuery(t *testing.T) {
	g := writeGraphFile(t)
	base, stop := startDaemon(t, []string{"-graph", g, "-access-log", "", "-slow-query", "1ns"})

	body, _ := json.Marshal(server.QueryRequest{Pattern: patText, Alpha: 0.9})
	req, _ := http.NewRequest(http.MethodPost, base+server.RouteQuery, bytes.NewReader(body))
	req.Header.Set(server.RequestIDHeader, "it-slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.RequestID != "it-slow-1" {
		t.Fatalf("status %d, id %q", resp.StatusCode, qr.RequestID)
	}
	if got := resp.Header.Get(server.RequestIDHeader); got != "it-slow-1" {
		t.Fatalf("response header id %q", got)
	}

	resp, err = http.Get(base + server.RouteDebugSlow)
	if err != nil {
		t.Fatal(err)
	}
	var sr server.SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Entries) != 1 || sr.Entries[0].RequestID != "it-slow-1" || sr.Entries[0].Trace == nil {
		t.Fatalf("slow entries: %+v", sr.Entries)
	}

	code, output := stop()
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}
	if !strings.Contains(output, `"request_id":"it-slow-1"`) || !strings.Contains(output, `"reason":"threshold"`) {
		t.Fatalf("slow-query log line missing:\n%s", output)
	}
}

// requireStartupLine asserts the one line that makes time-to-ready
// attributable from outside the process, printed before the address.
func requireStartupLine(t *testing.T, output string, nodes, edges int, origin string) {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(
		`(?m)^rbqd: loaded \|V\|=%d \|E\|=%d in \d+\.\d ms \(%s\), listening after \d+\.\d ms\nrbqd: listening on `,
		nodes, edges, origin))
	if !re.MatchString(output) {
		t.Fatalf("no startup line for |V|=%d |E|=%d (%s) in:\n%s", nodes, edges, origin, output)
	}
}

// TestDaemonColdStartLoadsOnce: every way of starting builds the
// auxiliary structure at most once, and a restart on a directory that
// holds data does not read the -graph file — here cut in half after the
// first start — while a fresh directory seeded from that file refuses
// to start.
func TestDaemonColdStartLoadsOnce(t *testing.T) {
	g := writeGraphFileAs(t, (*rbq.DB).SaveBinary) // binary: any truncation is an error
	dir := filepath.Join(t.TempDir(), "db")
	args := []string{"-db", dir, "-graph", g, "-access-log", ""}

	builds := graph.AuxBuilds()
	base, stop := startDaemon(t, args)
	if got := graph.AuxBuilds() - builds; got != 1 {
		t.Fatalf("fresh bootstrap built the auxiliary structure %d times, want 1", got)
	}
	resp, err := http.Post(base+server.RouteApply, "text/plain", strings.NewReader("node KEPT\napply\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: status %d", resp.StatusCode)
	}
	code, output := stop()
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}
	requireStartupLine(t, output, 7, 4, "fresh")

	data, err := os.ReadFile(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(g, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	builds = graph.AuxBuilds()
	base, stop = startDaemon(t, args)
	if got := graph.AuxBuilds() - builds; got != 0 {
		t.Fatalf("restart built the auxiliary structure %d times; the base image carries it", got)
	}
	resp, err = http.Get(base + server.RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Nodes != 8 {
		t.Fatalf("restart serves %d nodes, want the 7 seeded + 1 applied", st.Nodes)
	}
	if code, output = stop(); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, output)
	}
	requireStartupLine(t, output, 8, 4, "recovered")

	var out, errb bytes.Buffer
	fresh := filepath.Join(t.TempDir(), "db")
	if rc := run([]string{"-db", fresh, "-graph", g, "-access-log", ""}, &out, &errb, nil, nil); rc != 1 {
		t.Fatalf("fresh directory seeded from a truncated graph file: exit %d\n%s%s", rc, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "bootstrap") {
		t.Fatalf("stderr does not name the bootstrap:\n%s", errb.String())
	}

	builds = graph.AuxBuilds()
	os.WriteFile(g, data, 0o644)
	_, stop = startDaemon(t, []string{"-graph", g, "-access-log", ""})
	if got := graph.AuxBuilds() - builds; got != 1 {
		t.Fatalf("in-memory start built the auxiliary structure %d times, want 1", got)
	}
	stop()
}

func TestDaemonUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run(nil, &out, &errb, nil, nil); rc != 2 {
		t.Fatalf("no -graph/-db: exit %d", rc)
	}
	if !strings.Contains(errb.String(), "-graph or -db is required") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}
