package server

// The hot-path encoder: QueryResponse, BatchResponse/BatchResult and the
// access-log line are appended field by field into a caller-owned buffer
// — no reflection, no intermediate structs, no allocation once the
// buffer has grown. The wire structs in wire.go stay the contract (field
// names, order, omitempty); what is written here decodes into them
// exactly as their json.Marshal output does, which FuzzAppendQueryResponse
// and FuzzAppendAccessLine hold it to. Request ids and tenants are
// client-supplied strings, so appendString escapes everything
// encoding/json escapes. Decoding stays encoding/json, and so does every
// response off the hot path (errors, apply, stats, slow queries).

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"rbq"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal, escaping as
// encoding/json does with HTML escaping off: quote, backslash and
// control bytes are escaped, invalid UTF-8 becomes U+FFFD, and U+2028 /
// U+2029 are written as \u escapes.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f in encoding/json's float64 form: shortest
// round-trip digits, exponent notation below 1e-6 and from 1e21. JSON
// has no NaN or infinity (json.Marshal fails the whole value on one);
// none can reach here — α is validated and the bucket balance is
// bounded — and a null keeps the line well-formed if one ever does.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendGovernance appends g as the Governance object.
func appendGovernance(dst []byte, g *Governance) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = appendString(dst, g.Tenant)
	dst = append(dst, `,"requested_alpha":`...)
	dst = appendFloat(dst, g.RequestedAlpha)
	dst = append(dst, `,"effective_alpha":`...)
	dst = appendFloat(dst, g.EffectiveAlpha)
	dst = append(dst, `,"clamped":`...)
	dst = strconv.AppendBool(dst, g.Clamped)
	if g.ClampReason != "" {
		dst = append(dst, `,"clamp_reason":`...)
		dst = appendString(dst, g.ClampReason)
	}
	dst = append(dst, `,"queued":`...)
	dst = strconv.AppendBool(dst, g.Queued)
	dst = append(dst, `,"visits_charged":`...)
	dst = strconv.AppendInt(dst, int64(g.VisitsCharged), 10)
	if g.BudgetRemaining != nil {
		dst = append(dst, `,"budget_remaining":`...)
		dst = appendFloat(dst, *g.BudgetRemaining)
	}
	return append(dst, '}')
}

// appendAnswer opens an object and appends the six fields QueryResponse
// and BatchResult share, straight from the engine's Result; the caller
// appends the rest and closes the object.
func appendAnswer(dst []byte, res *rbq.Result) []byte {
	dst = append(dst, `{"matches":[`...)
	for i, m := range res.Matches {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(m), 10)
	}
	dst = append(dst, `],"personalized":`...)
	dst = strconv.AppendInt(dst, int64(res.Personalized), 10)
	dst = append(dst, `,"complete":`...)
	dst = strconv.AppendBool(dst, res.Complete)
	dst = append(dst, `,"fragment_size":`...)
	dst = strconv.AppendInt(dst, int64(res.FragmentSize), 10)
	dst = append(dst, `,"budget":`...)
	dst = strconv.AppendInt(dst, int64(res.Budget), 10)
	dst = append(dst, `,"visited":`...)
	return strconv.AppendInt(dst, int64(res.Visited), 10)
}

// appendTrace appends the "trace" member when trace is set and the
// result carries one. The span tree is the one part still rendered by
// json.Marshal: it is opt-in, recursive and owned by internal/obs.
func appendTrace(dst []byte, res *rbq.Result, trace bool) []byte {
	if !trace || res.Trace == nil {
		return dst
	}
	tr, err := json.Marshal(res.Trace)
	if err != nil {
		return dst
	}
	dst = append(dst, `,"trace":`...)
	return append(dst, tr...)
}

// appendTail appends the members QueryResponse and BatchResponse end
// with — epoch, elapsed_us, governance, request_id — without closing
// the object.
func appendTail(dst []byte, epoch uint64, elapsedUs int64, gov *Governance, reqID string) []byte {
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, elapsedUs, 10)
	dst = append(dst, `,"governance":`...)
	dst = appendGovernance(dst, gov)
	if reqID != "" {
		dst = append(dst, `,"request_id":`...)
		dst = appendString(dst, reqID)
	}
	return dst
}

// appendQueryResponse appends the QueryResponse for res and a newline.
func appendQueryResponse(dst []byte, res *rbq.Result, elapsedUs int64, gov *Governance, reqID string, trace bool) []byte {
	dst = appendAnswer(dst, res)
	if res.Candidates != 0 {
		dst = append(dst, `,"candidates":`...)
		dst = strconv.AppendInt(dst, int64(res.Candidates), 10)
	}
	if res.Evaluated != 0 {
		dst = append(dst, `,"evaluated":`...)
		dst = strconv.AppendInt(dst, int64(res.Evaluated), 10)
	}
	dst = appendTail(dst, res.Epoch, elapsedUs, gov, reqID)
	dst = appendTrace(dst, res, trace)
	return append(dst, '}', '\n')
}

// appendBatchResponse appends the BatchResponse for results — itemErr[i]
// is item i's Error, "" for none — and a newline. results is non-empty;
// every item carries the batch's one epoch.
func appendBatchResponse(dst []byte, results []rbq.Result, itemErr []string, elapsedUs int64, gov *Governance, reqID string, trace bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendAnswer(dst, &results[i])
		if itemErr[i] != "" {
			dst = append(dst, `,"error":`...)
			dst = appendString(dst, itemErr[i])
		}
		dst = appendTrace(dst, &results[i], trace)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	dst = appendTail(dst, results[0].Epoch, elapsedUs, gov, reqID)
	return append(dst, '}', '\n')
}

// appendAccessLine appends one access-log line and its newline.
func appendAccessLine(dst []byte, now time.Time, reqID, route, method, tenant, remote string, code int, elapsedUs int64, gov *Governance) []byte {
	dst = append(dst, `{"ts":"`...)
	dst = now.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	if reqID != "" {
		dst = append(dst, `,"request_id":`...)
		dst = appendString(dst, reqID)
	}
	dst = append(dst, `,"route":`...)
	dst = appendString(dst, route)
	dst = append(dst, `,"method":`...)
	dst = appendString(dst, method)
	dst = append(dst, `,"tenant":`...)
	dst = appendString(dst, tenant)
	if remote != "" {
		dst = append(dst, `,"remote":`...)
		dst = appendString(dst, remote)
	}
	dst = append(dst, `,"code":`...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, elapsedUs, 10)
	if gov != nil {
		dst = append(dst, `,"governance":`...)
		dst = appendGovernance(dst, gov)
	}
	return append(dst, '}', '\n')
}
