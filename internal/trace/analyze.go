package trace

import (
	"simtmp/internal/stats"
)

// Stats is the per-application characterization of §IV: everything
// Table I, Figure 2 and Figure 6a report.
type Stats struct {
	App   string
	Ranks int

	Sends int
	Recvs int

	// Wildcard usage (Table I: only MiniDFT and MiniFE use the source
	// wildcard; no application uses the tag wildcard).
	SrcWildcardRecvs int
	TagWildcardRecvs int

	// Communicators used for point-to-point traffic.
	Communicators int

	// PeersPerRank summarizes, across ranks, how many distinct peers
	// each rank exchanges messages with (§IV: mostly 10-30).
	PeersPerRank stats.Summary

	// DistinctTags is the number of distinct tag values, and
	// MaxTagBits the bits needed for the largest (§IV: ≤16 everywhere).
	DistinctTags int
	MaxTagBits   int

	// UMQMax / PRQMax summarize, across ranks, the maximum queue depth
	// observed at any matching attempt (Figure 2).
	UMQMax stats.Summary
	PRQMax stats.Summary

	// UnexpectedFraction is the fraction of messages that arrived
	// before their receive was posted.
	UnexpectedFraction float64

	// TupleUniqueness summarizes, across destinations, the largest
	// share of one {src,tag} tuple among the messages to that
	// destination (Figure 6a: single-digit percentages are
	// hash-friendly).
	TupleUniqueness stats.Summary

	// MsgBytes summarizes per-message payload sizes, and EagerFraction
	// is the share of messages at or below the 8 KiB eager threshold —
	// what the proto layer would push eagerly versus rendezvous.
	MsgBytes      stats.Summary
	EagerFraction float64
}

// eagerThresholdBytes mirrors proto.DefaultPolicy's eager limit.
const eagerThresholdBytes = 8 * 1024

// key packs a matching class {src, tag, comm} into one word, src and
// tag shifted up by one so that their wildcards (-1) pack as 0. A valid
// trace (Validate) keeps tags within 16 bits and communicators within
// 12, so the fields never overlap.
type key uint64

const (
	srcBits key = 0xFFFF_FFFF << 32
	tagBits key = (1<<20 - 1) << 12
)

func packKey(src, tag, comm int) key {
	return key(uint64(src+1)<<32 | uint64(tag+1)<<12 | uint64(comm))
}

// queueRec reconstructs one rank's UMQ or PRQ with exact FIFO-match
// semantics. Entries are kept in posted order; concrete lookups go
// through per-key FIFO index lists, wildcard lookups scan in order.
// Removal is lazy: a removed entry stays in entries as a tombstone, and
// a key list drops its dead prefix when it is next read.
type queueRec struct {
	entries []key
	removed []bool
	byKey   map[key][]int
	live    int
	max     int
}

// push appends an entry.
func (q *queueRec) push(k key) {
	idx := len(q.entries)
	q.entries = append(q.entries, k)
	q.removed = append(q.removed, false)
	q.byKey[k] = append(q.byKey[k], idx)
	q.live++
	if q.live > q.max {
		q.max = q.live
	}
}

// earliestOf removes and returns the earliest live index among the
// entries with one of keys, or -1. A concrete receive looks up its one
// key; a message arrival probing a PRQ that may hold wildcard requests
// looks up the four request forms that could match it.
func (q *queueRec) earliestOf(keys ...key) int {
	best := -1
	for _, k := range keys {
		lst := q.byKey[k]
		// Trim dead prefix for amortized O(1).
		for len(lst) > 0 && q.removed[lst[0]] {
			lst = lst[1:]
		}
		q.byKey[k] = lst
		if len(lst) > 0 && (best == -1 || lst[0] < best) {
			best = lst[0]
		}
	}
	if best >= 0 {
		q.remove(best)
		// Also drop it from its key list head.
		k := q.entries[best]
		if lst := q.byKey[k]; len(lst) > 0 && lst[0] == best {
			q.byKey[k] = lst[1:]
		}
	}
	return best
}

// scanMatch removes and returns the position of the earliest live
// message entry matching a request with possible wildcards, or -1.
func (q *queueRec) scanMatch(src, tag, comm int) int {
	care := ^key(0)
	if src == AnySourcePeer {
		care &^= srcBits
	}
	if tag == AnyTagValue {
		care &^= tagBits
	}
	want := packKey(src, tag, comm) & care
	for idx, k := range q.entries {
		if !q.removed[idx] && k&care == want {
			q.remove(idx)
			// Lazy key-list cleanup happens on future pops.
			return idx
		}
	}
	return -1
}

func (q *queueRec) remove(idx int) {
	q.removed[idx] = true
	q.live--
}

// Analyze replays the trace and derives the full §IV characterization.
func Analyze(t *Trace) *Stats {
	s := &Stats{App: t.App, Ranks: t.Ranks}

	umq := make([]*queueRec, t.Ranks)
	prq := make([]*queueRec, t.Ranks)
	peers := make([]map[int]struct{}, t.Ranks)
	for r := 0; r < t.Ranks; r++ {
		umq[r] = &queueRec{byKey: make(map[key][]int)}
		prq[r] = &queueRec{byKey: make(map[key][]int)}
		peers[r] = make(map[int]struct{})
	}
	comms := make(map[int]struct{})
	tags := make(map[int]struct{})
	maxTag := 0
	unexpected := 0
	eager := 0
	var sizes []float64
	tupleByDst := make([]*stats.Counter, t.Ranks)
	for r := range tupleByDst {
		tupleByDst[r] = stats.NewCounter()
	}

	for _, e := range t.Events {
		comms[e.Comm] = struct{}{}
		switch e.Kind {
		case Send:
			src, dst := e.Rank, e.Peer
			peers[src][dst] = struct{}{}
			peers[dst][src] = struct{}{}
			tags[e.Tag] = struct{}{}
			if e.Tag > maxTag {
				maxTag = e.Tag
			}
			s.Sends++
			sizes = append(sizes, float64(e.Size))
			if e.Size <= eagerThresholdBytes {
				eager++
			}
			tupleByDst[dst].Add(e.Rank<<20 | e.Tag)
			// Arrival at dst: probe the PRQ for the earliest matching
			// posted request (concrete, src-wildcard, tag-wildcard, or
			// both-wildcard form).
			k := packKey(src, e.Tag, e.Comm)
			if prq[dst].earliestOf(k,
				packKey(AnySourcePeer, e.Tag, e.Comm),
				packKey(src, AnyTagValue, e.Comm),
				packKey(AnySourcePeer, AnyTagValue, e.Comm),
			) < 0 {
				unexpected++
				umq[dst].push(k)
			}
		case Recv:
			r := e.Rank
			s.Recvs++
			if e.Peer == AnySourcePeer {
				s.SrcWildcardRecvs++
			} else {
				peers[r][e.Peer] = struct{}{}
			}
			if e.Tag == AnyTagValue {
				s.TagWildcardRecvs++
			}
			var matched int
			if e.Peer == AnySourcePeer || e.Tag == AnyTagValue {
				matched = umq[r].scanMatch(e.Peer, e.Tag, e.Comm)
			} else {
				matched = umq[r].earliestOf(packKey(e.Peer, e.Tag, e.Comm))
			}
			if matched < 0 {
				prq[r].push(packKey(e.Peer, e.Tag, e.Comm))
			}
		}
	}

	s.Communicators = len(comms)
	s.DistinctTags = len(tags)
	for bits := 0; bits <= 32; bits++ {
		if maxTag < 1<<uint(bits) {
			s.MaxTagBits = bits
			break
		}
	}
	if s.Sends > 0 {
		s.UnexpectedFraction = float64(unexpected) / float64(s.Sends)
	}

	peerCounts := make([]float64, 0, t.Ranks)
	umqMax := make([]float64, 0, t.Ranks)
	prqMax := make([]float64, 0, t.Ranks)
	uniq := make([]float64, 0, t.Ranks)
	for r := 0; r < t.Ranks; r++ {
		peerCounts = append(peerCounts, float64(len(peers[r])))
		umqMax = append(umqMax, float64(umq[r].max))
		prqMax = append(prqMax, float64(prq[r].max))
		if tupleByDst[r].Total() > 0 {
			uniq = append(uniq, tupleByDst[r].MaxShare())
		}
	}
	s.MsgBytes = stats.Summarize(sizes)
	if s.Sends > 0 {
		s.EagerFraction = float64(eager) / float64(s.Sends)
	}
	s.PeersPerRank = stats.Summarize(peerCounts)
	s.UMQMax = stats.Summarize(umqMax)
	s.PRQMax = stats.Summarize(prqMax)
	s.TupleUniqueness = stats.Summarize(uniq)
	return s
}
