package rbq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbq"
	"rbq/internal/server"
	"rbq/internal/store"
)

// stallFS is the real filesystem with one fault, in the manner of
// store.CrashFS: once armed, the next file Sync — the WAL fsync DB.Apply
// performs while it holds the DB's mutation lock — announces itself on
// entered and blocks until release is closed.
type stallFS struct {
	store.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (s *stallFS) OpenAppend(name string) (store.File, error) {
	f, err := s.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &stallFile{File: f, fs: s}, nil
}

type stallFile struct {
	store.File
	fs *stallFS
}

func (f *stallFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestReadersDoNotWaitForAWriter holds the DB's mutation lock inside an
// Apply — stalled in its WAL fsync — and requires everything a reader or
// an operator can ask of the daemon to answer meanwhile, from the
// snapshot published before the Apply: /v1/query, /v1/query_batch,
// /v1/stats and /metrics, and the DB's own stats accessors.
func TestReadersDoNotWaitForAWriter(t *testing.T) {
	fs := &stallFS{FS: store.OSFS, entered: make(chan struct{}), release: make(chan struct{})}
	db, err := rbq.OpenDB(t.TempDir(), rbq.OpenOptions{Bootstrap: socialGraph()}.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer ts.Close()

	const pat = "node 0 Michael*\nnode 1 CC\nnode 2 CL!\nedge 0 1\nedge 1 2\n"
	query, _ := json.Marshal(server.QueryRequest{Pattern: pat, Alpha: 0.9})
	batch, _ := json.Marshal(server.BatchRequest{Items: []server.BatchItem{{Pattern: pat, Anchor: 0}}, Alpha: 0.9})
	// do answers within the deadline or fails the test: a handler that
	// waits for the stalled Apply would hang here, not error.
	do := func(method, route string, body []byte, into any) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, ts.URL+route, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s did not answer while an Apply held the mutation lock: %v", route, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", route, resp.StatusCode)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s: %v", route, err)
			}
		}
	}
	var warm server.QueryResponse
	do(http.MethodPost, server.RouteQuery, query, &warm)

	fs.armed.Store(true)
	// Also on the way out of a failed assertion: the server cannot close
	// while a handler waits behind the stalled Apply.
	release := sync.OnceFunc(func() { close(fs.release) })
	defer release()
	applied := make(chan error, 1)
	go func() { applied <- db.Apply([]rbq.Op{rbq.AddNode("CL"), rbq.AddEdge(1, 6)}) }()
	<-fs.entered // the Apply now sits in its fsync, holding the lock

	var qr server.QueryResponse
	do(http.MethodPost, server.RouteQuery, query, &qr)
	if qr.Epoch != warm.Epoch || len(qr.Matches) != len(warm.Matches) {
		t.Fatalf("query during the apply: epoch %d matches %v, want the published epoch %d and %v", qr.Epoch, qr.Matches, warm.Epoch, warm.Matches)
	}
	var br server.BatchResponse
	do(http.MethodPost, server.RouteBatch, batch, &br)
	if br.Epoch != warm.Epoch {
		t.Fatalf("batch during the apply: epoch %d, want %d", br.Epoch, warm.Epoch)
	}
	var st server.StatsResponse
	do(http.MethodGet, server.RouteStats, nil, &st)
	if st.Epoch != warm.Epoch || st.Mutation.Seq != 0 || !st.Mutation.Persistent || !st.Recovery.FreshDir {
		t.Fatalf("stats during the apply: %+v", st)
	}
	do(http.MethodGet, server.RouteMetrics, nil, nil)
	if ms := db.MutationStats(); ms.Epoch != warm.Epoch || ms.LiveDeltaOps != 0 {
		t.Fatalf("MutationStats during the apply: %+v", ms)
	}

	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	do(http.MethodPost, server.RouteQuery, query, &qr)
	if ms := db.MutationStats(); qr.Epoch != warm.Epoch+1 || len(qr.Matches) != len(warm.Matches)+1 || ms.Seq != 1 || ms.Epoch != qr.Epoch {
		t.Fatalf("after the apply: query epoch %d matches %v, stats %+v", qr.Epoch, qr.Matches, ms)
	}
}
