package server

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"rbq"
	"rbq/internal/obs"
)

// toWireMatches is the []int64 form QueryResponse.Matches has on the
// wire; non-nil, as the handler always answered.
func toWireMatches(ms []rbq.NodeID) []int64 {
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = int64(m)
	}
	return out
}

// sameJSON fails unless got and want (json.Marshal of the wire struct)
// decode into equal values of T: the append encoder's contract.
func sameJSON[T any](t *testing.T, got, want []byte) {
	t.Helper()
	var g, w T
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("reference encoding does not decode: %v\n%s", err, want)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("append encoding does not decode: %v\n%s", err, got)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("append encoding decodes to\n%+v\nwant\n%+v\ngot  %s\nwant %s", g, w, got, want)
	}
}

// finite maps the fuzzer's floats into what a Governance can hold:
// json.Marshal refuses NaN and infinities outright.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// FuzzAppendQueryResponse holds appendQueryResponse and
// appendBatchResponse to the wire structs: for any Result, Governance and
// client-supplied strings — quotes, control bytes, invalid UTF-8 — what
// they write decodes to what json.Marshal of QueryResponse/BatchResponse
// decodes to.
func FuzzAppendQueryResponse(f *testing.F) {
	f.Add([]byte{3, 0, 9}, int32(3), true, 30, 37, 412, 0, 0, uint64(4), int64(181), "anonymous", "", "0123456789abcdef", "", 1e-4, 1e-4, false, false, 412, false, 0.0, false)
	f.Add([]byte{}, int32(-1), false, 0, 0, 0, 7, 5, uint64(0), int64(0), "te\"nant\\\x00\x1f", "tenant_budget+saturation", "id\n\r\t  <>&", "bad pattern: \xff\xfe", 0.5, 1e-7, true, true, -1, true, -1e21, true)
	f.Add([]byte{255, 255, 255, 255}, int32(math.MaxInt32), true, math.MaxInt64, math.MinInt64, 1, 1, 1, uint64(math.MaxUint64), int64(math.MinInt64), "\xc3\x28", "é", "", "x", 1e21, 5e-324, false, true, 0, true, 123456.789, true)
	f.Fuzz(func(t *testing.T, matches []byte, personalized int32, complete bool, fragment, budget, visited, candidates, evaluated int,
		epoch uint64, elapsedUs int64, tenant, reason, reqID, itemErr string, reqAlpha, effAlpha float64, clamped, queued bool,
		visits int, hasBalance bool, balance float64, traced bool) {
		res := rbq.Result{
			Matches:      make([]rbq.NodeID, len(matches)),
			Personalized: rbq.NodeID(personalized),
			Complete:     complete,
			FragmentSize: fragment, Budget: budget, Visited: visited,
			Candidates: candidates, Evaluated: evaluated,
			Epoch: epoch,
		}
		for i, b := range matches {
			res.Matches[i] = rbq.NodeID(int32(b)<<uint(i%24) - int32(i))
		}
		if traced {
			res.Trace = obs.NewTrace(obs.PhaseQuery)
			res.Trace.RequestID = reqID
			res.Trace.Root.Child(reason).Add(tenant, elapsedUs)
			res.Trace.Finish()
		}
		gov := Governance{
			Tenant: tenant, RequestedAlpha: finite(reqAlpha), EffectiveAlpha: finite(effAlpha),
			Clamped: clamped, ClampReason: reason, Queued: queued, VisitsCharged: visits,
		}
		if hasBalance {
			b := finite(balance)
			gov.BudgetRemaining = &b
		}

		want, err := json.Marshal(QueryResponse{
			Matches: toWireMatches(res.Matches), Personalized: int64(res.Personalized), Complete: res.Complete,
			FragmentSize: res.FragmentSize, Budget: res.Budget, Visited: res.Visited,
			Candidates: res.Candidates, Evaluated: res.Evaluated,
			Epoch: res.Epoch, ElapsedUs: elapsedUs, Governance: gov, RequestID: reqID, Trace: res.Trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := appendQueryResponse(nil, &res, elapsedUs, &gov, reqID, true)
		if len(got) == 0 || got[len(got)-1] != '\n' {
			t.Fatalf("no trailing newline: %q", got)
		}
		sameJSON[QueryResponse](t, got, want)

		// The same result twice as a batch, the second item failed.
		item := BatchResult{
			Matches: toWireMatches(res.Matches), Personalized: int64(res.Personalized), Complete: res.Complete,
			FragmentSize: res.FragmentSize, Budget: res.Budget, Visited: res.Visited, Trace: res.Trace,
		}
		failed := item
		failed.Error = itemErr
		want, err = json.Marshal(BatchResponse{
			Results: []BatchResult{item, failed},
			Epoch:   res.Epoch, ElapsedUs: elapsedUs, Governance: gov, RequestID: reqID,
		})
		if err != nil {
			t.Fatal(err)
		}
		got = appendBatchResponse(nil, []rbq.Result{res, res}, []string{"", itemErr}, elapsedUs, &gov, reqID, true)
		sameJSON[BatchResponse](t, got, want)

		// Without the opt-in no trace is written, whatever the result holds.
		var lean QueryResponse
		if err := json.Unmarshal(appendQueryResponse(nil, &res, elapsedUs, &gov, reqID, false), &lean); err != nil || lean.Trace != nil {
			t.Fatalf("trace written without the opt-in (err %v)", err)
		}
	})
}

// accessLine is the access log's line as a struct: the reference
// FuzzAppendAccessLine encodes with json.Marshal.
type accessLine struct {
	TS      string      `json:"ts"`
	ReqID   string      `json:"request_id,omitempty"`
	Route   string      `json:"route"`
	Method  string      `json:"method"`
	Tenant  string      `json:"tenant"`
	Remote  string      `json:"remote,omitempty"`
	Code    int         `json:"code"`
	Micros  int64       `json:"elapsed_us"`
	Governd *Governance `json:"governance,omitempty"`
}

// FuzzAppendAccessLine: the same contract for the access-log line, whose
// request id, tenant, method and remote address all come from the client.
func FuzzAppendAccessLine(f *testing.F) {
	f.Add(int64(1790000000), int64(123456789), "corr-42", RouteQuery, "POST", "anonymous", "127.0.0.1:4242", 200, int64(181), true, 1e-4, "")
	f.Add(int64(-1), int64(0), "\"}\n{\"forged\":1", "/v1/\x00", "P\xffST", "te\\nant", "", 499, int64(-5), false, 0.0, "saturation")
	f.Fuzz(func(t *testing.T, sec, nsec int64, reqID, route, method, tenant, remote string, code int, elapsedUs int64, hasGov bool, alpha float64, reason string) {
		now := time.Unix(sec%(1<<34), nsec%1e9) // years RFC 3339 can print
		var gov *Governance
		if hasGov {
			gov = &Governance{Tenant: tenant, RequestedAlpha: finite(alpha), EffectiveAlpha: finite(alpha) / 2, ClampReason: reason, Clamped: reason != ""}
		}
		want, err := json.Marshal(accessLine{
			TS: now.UTC().Format(time.RFC3339Nano), ReqID: reqID, Route: route, Method: method,
			Tenant: tenant, Remote: remote, Code: code, Micros: elapsedUs, Governd: gov,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := appendAccessLine(nil, now, reqID, route, method, tenant, remote, code, elapsedUs, gov)
		if n := len(got); n == 0 || got[n-1] != '\n' {
			t.Fatalf("no trailing newline: %q", got)
		}
		for _, b := range got[:len(got)-1] {
			if b == '\n' {
				t.Fatalf("a client string broke the line: %q", got)
			}
		}
		sameJSON[accessLine](t, got, want)
	})
}
