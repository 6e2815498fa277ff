package main

import (
	"encoding/binary"
	"fmt"
	"hash"

	"rbq/internal/server"
)

// The answer checks. Each returns "" for a good answer and the reason
// otherwise; an answer with a reason is a failed operation.

// checkGovernance: the server ran the α it was asked for. The
// benchmark never saturates admission and sets no tenant budgets, so a
// clamped or altered α means the answer is not the one measured.
func checkGovernance(alpha float64, g server.Governance) string {
	if g.Clamped {
		return fmt.Sprintf("alpha clamped (%s)", g.ClampReason)
	}
	if g.RequestedAlpha != alpha || g.EffectiveAlpha != alpha {
		return fmt.Sprintf("alpha: sent %v, requested %v, effective %v", alpha, g.RequestedAlpha, g.EffectiveAlpha)
	}
	return ""
}

// checkFragment: the paper's guarantee, |G_Q| ≤ α|G|.
func checkFragment(fragment, budget int) string {
	if fragment > budget {
		return fmt.Sprintf("fragment_size %d > budget %d", fragment, budget)
	}
	return ""
}

func checkQueryAnswer(req *server.QueryRequest, resp *server.QueryResponse) string {
	if why := checkGovernance(req.Alpha, resp.Governance); why != "" {
		return why
	}
	// An unanchored run's fragments total α|G| plus at most one
	// anchor's share, so the per-answer bound is the anchored modes'.
	if req.Mode != "unanchored" {
		return checkFragment(resp.FragmentSize, resp.Budget)
	}
	return ""
}

func checkBatchAnswer(req *server.BatchRequest, resp *server.BatchResponse) string {
	if why := checkGovernance(req.Alpha, resp.Governance); why != "" {
		return why
	}
	if len(resp.Results) != len(req.Items) {
		return fmt.Sprintf("batch of %d items answered with %d results", len(req.Items), len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			return fmt.Sprintf("item %d: %s", i, r.Error)
		}
		if why := checkFragment(r.FragmentSize, r.Budget); why != "" {
			return fmt.Sprintf("item %d: %s", i, why)
		}
	}
	return ""
}

// checkSubset: under subgraph semantics a bounded answer is found in a
// subgraph of G, so it is contained in the exact one. Both are sorted.
func checkSubset(bounded, exact []int64) string {
	j := 0
	for _, m := range bounded {
		for j < len(exact) && exact[j] < m {
			j++
		}
		if j == len(exact) || exact[j] != m {
			return fmt.Sprintf("bounded match %d is not an exact match", m)
		}
	}
	return ""
}

// checkEpoch: one connection never sees the snapshot epoch go back.
func checkEpoch(last, got uint64) string {
	if got < last {
		return fmt.Sprintf("epoch went back from %d to %d", last, got)
	}
	return ""
}

// checkDigests: a read-only workload gives the same answers in every
// segment.
func checkDigests(digests []uint64) string {
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Sprintf("segment %d answers digest %016x, segment 0 %016x", i, d, digests[0])
		}
	}
	return ""
}

// checkRecovered: after a crash rbqd still has every batch it acked.
func checkRecovered(lastAcked, recovered uint64) string {
	if recovered < lastAcked {
		return fmt.Sprintf("acked through durable_seq %d, recovered only %d", lastAcked, recovered)
	}
	return ""
}

// hashMatches folds one answer's matches into a running digest.
func hashMatches(h hash.Hash64, matches []int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(matches)))
	h.Write(buf[:])
	for _, m := range matches {
		binary.LittleEndian.PutUint64(buf[:], uint64(m))
		h.Write(buf[:])
	}
}
