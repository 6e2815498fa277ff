package server

// Tests of the read path's contract with writers and with its own log:
// a response reports the epoch it was evaluated at, whatever was applied
// since; and the batched access log stays whole, ordered, prompt, and
// complete across a drain.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbq"
)

// TestResponseEpochIsThePinnedSnapshot holds a query between its
// evaluation and its encoding, lands an Apply that changes the answer,
// and releases it: the response must carry the epoch and the answer of
// the snapshot the query pinned, not the DB's epoch at encode time. The
// hold uses two existing seams: beforeEval arms it (the snapshot is
// pinned right after, inside DB.Query), and the tenant clock — next read
// when the evaluation's visits are charged — blocks on it.
func TestResponseEpochIsThePinnedSnapshot(t *testing.T) {
	var hold atomic.Int32 // 0 until the first request, 1 while it is armed, 2 once spent
	evaluated, release := make(chan struct{}), make(chan struct{})
	cfg := Config{TenantRate: 1e9}
	cfg.beforeEval = func(route, tenant string) { hold.CompareAndSwap(0, 1) }
	s, ts := newTestServer(t, cfg)
	s.ten.now = func() time.Time {
		if hold.CompareAndSwap(1, 2) {
			close(evaluated)
			<-release
		}
		return time.Now()
	}

	var res QueryResponse
	var code int
	done := make(chan struct{})
	go func() {
		defer close(done)
		code = postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	}()
	<-evaluated
	// A second CL node under both parents: the motif now matches twice.
	if err := s.db.Apply([]rbq.Op{rbq.AddNode("CL"), rbq.AddEdge(1, 7), rbq.AddEdge(2, 7)}); err != nil {
		t.Fatal(err)
	}
	if got := s.db.MutationStats().Epoch; got != 1 {
		t.Fatalf("epoch after the apply = %d, want 1", got)
	}
	close(release)
	<-done
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.Epoch != 0 || len(res.Matches) != 1 || res.Matches[0] != 3 {
		t.Fatalf("held query answered epoch %d matches %v, want the pinned epoch 0 and its answer [3]", res.Epoch, res.Matches)
	}

	// The next query pins the new snapshot and says so.
	var next QueryResponse
	postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.9}, &next)
	if next.Epoch != 1 || len(next.Matches) != 2 {
		t.Fatalf("next query answered epoch %d matches %v, want epoch 1 and two matches", next.Epoch, next.Matches)
	}
	var batch BatchResponse
	postJSON(t, ts.URL+RouteBatch, "", BatchRequest{Items: []BatchItem{{Pattern: patText, Anchor: 0}}, Alpha: 0.9}, &batch)
	if batch.Epoch != 1 {
		t.Fatalf("batch answered epoch %d, want 1", batch.Epoch)
	}
}

// chunkLog records every Write the access log receives.
type chunkLog struct {
	mu     sync.Mutex
	chunks [][]byte
}

func (c *chunkLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks = append(c.chunks, append([]byte(nil), p...))
	return len(p), nil
}

func (c *chunkLog) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.chunks...)
}

// TestAccessLogBatched: under concurrent clients the log is written in
// batches, each batch whole lines, every request present exactly once and
// each client's requests in the order it sent them.
func TestAccessLogBatched(t *testing.T) {
	var log chunkLog
	s, ts := newTestServer(t, Config{AccessLog: &log})
	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var res QueryResponse
				code, _ := postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: fmt.Sprintf("c%d-%d", c, i)},
					QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
				if code != http.StatusOK {
					t.Errorf("client %d request %d: status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.flushAccessLog()

	chunks := log.snapshot()
	if len(chunks) >= clients*perClient {
		t.Fatalf("%d writes for %d requests: the log is not batched", len(chunks), clients*perClient)
	}
	next := make([]int, clients)
	for _, chunk := range chunks {
		if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
			t.Fatalf("a write does not end on a line boundary: %q", chunk)
		}
		if len(chunk) > logFlushBytes+1024 {
			t.Fatalf("a %d-byte write: batches are bounded by logFlushBytes plus one line", len(chunk))
		}
		sc := bufio.NewScanner(bytes.NewReader(chunk))
		for sc.Scan() {
			var line struct {
				TS      string      `json:"ts"`
				ReqID   string      `json:"request_id"`
				Route   string      `json:"route"`
				Method  string      `json:"method"`
				Tenant  string      `json:"tenant"`
				Remote  string      `json:"remote"`
				Code    int         `json:"code"`
				Micros  *int64      `json:"elapsed_us"`
				Governd *Governance `json:"governance"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("log line is not JSON: %v\n%s", err, sc.Bytes())
			}
			if _, err := time.Parse(time.RFC3339Nano, line.TS); err != nil {
				t.Fatalf("log line ts %q: %v", line.TS, err)
			}
			if line.Route != RouteQuery || line.Method != http.MethodPost || line.Tenant != DefaultTenant ||
				line.Remote == "" || line.Code != http.StatusOK || line.Micros == nil ||
				line.Governd == nil || line.Governd.EffectiveAlpha != 0.9 {
				t.Fatalf("log line lost a field: %s", sc.Bytes())
			}
			var c, i int
			if _, err := fmt.Sscanf(line.ReqID, "c%d-%d", &c, &i); err != nil {
				t.Fatalf("log line request id %q", line.ReqID)
			}
			if i != next[c] {
				t.Fatalf("client %d: request %d logged where %d was due", c, i, next[c])
			}
			next[c]++
		}
	}
	for c, n := range next {
		if n != perClient {
			t.Fatalf("client %d: %d of %d requests logged", c, n, perClient)
		}
	}
}

// TestAccessLogFlushes: a line reaches the writer within logFlushEvery
// on its own, and at once — this and every later one — once the server
// is draining.
func TestAccessLogFlushes(t *testing.T) {
	var log chunkLog
	s, ts := newTestServer(t, Config{AccessLog: &log})
	logged := func(id string) bool {
		for _, chunk := range log.snapshot() {
			if bytes.Contains(chunk, []byte(`"request_id":"`+id+`"`)) {
				return true
			}
		}
		return false
	}
	var res QueryResponse
	postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: "timed"}, QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	waitFor(t, func() bool { return logged("timed") }) // no flush call: the timer's work

	postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: "buffered"}, QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	// The handler logs after it writes the response: wait for the line
	// (on a stalled host the timer may already have written it).
	waitFor(t, func() bool {
		s.logMu.Lock()
		defer s.logMu.Unlock()
		return len(s.logBuf) > 0 || logged("buffered")
	})
	s.BeginShutdown()
	if !logged("buffered") {
		t.Fatal("BeginShutdown left a buffered line unwritten")
	}
	var er ErrorResponse
	code, _ := postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: "draining"}, QueryRequest{Pattern: patText, Alpha: 0.9}, &er)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d", code)
	}
	waitFor(t, func() bool { return logged("draining") })
	if n := len(log.snapshot()); n < 3 {
		t.Fatalf("%d writes, want one per flush above", n)
	}
}

// TestRequestBodyLimits: a body past MaxBodyBytes and trailing garbage
// after the JSON value are both 400s; trailing white space is not.
func TestRequestBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+RouteQuery, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	good, _ := json.Marshal(QueryRequest{Pattern: patText, Alpha: 0.9})
	if code := post(string(good) + "\n  \n"); code != http.StatusOK {
		t.Fatalf("trailing white space: status %d", code)
	}
	if code := post(string(good) + "{}"); code != http.StatusBadRequest {
		t.Fatalf("trailing garbage: status %d", code)
	}
	big, _ := json.Marshal(QueryRequest{Pattern: patText + "# " + strings.Repeat("x", 600) + "\n", Alpha: 0.9})
	if code := post(string(big)); code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d", code)
	}
}
