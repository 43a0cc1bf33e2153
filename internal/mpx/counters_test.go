package mpx

import (
	"reflect"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/simt"
)

// TestStatsLongRunCounters audits the Stats counters across a
// multi-million-message run: every counter must come out exactly
// consistent (no wraps, no drift, no double counting from repeated
// Stats reads), which is the contract the soak driver's SLO accounting
// depends on.
func TestStatsLongRunCounters(t *testing.T) {
	total := 2_000_000
	if raceEnabled {
		total = 400_000
	}
	if testing.Short() {
		total = 100_000
	}
	const batch = 8192

	rt := New(Config{Level: Unordered, GPUs: 2, QueueCap: 2 * batch})
	sent := 0
	for sent < total {
		n := batch
		if rem := total - sent; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			tag := envelope.Tag(i) // unique within the batch
			if err := rt.Send(0, 1, tag, 0, nil); err != nil {
				t.Fatalf("send %d: %v", sent+i, err)
			}
			if _, err := rt.PostRecv(1, 0, tag, 0); err != nil {
				t.Fatalf("post %d: %v", sent+i, err)
			}
		}
		ok, err := rt.Drain(10_000)
		if err != nil {
			t.Fatalf("drain at %d: %v", sent, err)
		}
		if !ok {
			t.Fatalf("drain at %d left receives open", sent)
		}
		sent += n
	}

	st := rt.Stats()
	if st.Sends != total || st.PostedRecvs != total || st.Matches != total {
		t.Errorf("sends/posted/matches = %d/%d/%d, want all %d",
			st.Sends, st.PostedRecvs, st.Matches, total)
	}
	if st.Unmatched != 0 {
		t.Errorf("unmatched = %d, want 0", st.Unmatched)
	}
	if st.Retries != 0 || st.Duplicates != 0 || st.Drops != 0 || st.Corrupt != 0 || st.Invalid != 0 {
		t.Errorf("lossless wire produced reliability counters: %+v", st)
	}
	if st.Acks != total {
		t.Errorf("acks = %d, want %d (one per delivered frame)", st.Acks, total)
	}
	if st.ProgressSteps <= 0 || st.SimSeconds <= 0 || st.Iterations <= 0 {
		t.Errorf("work counters not advancing: steps=%d sim=%v iters=%d",
			st.ProgressSteps, st.SimSeconds, st.Iterations)
	}
	if st.EagerMsgs != total || st.RendezvousMsgs != 0 {
		t.Errorf("eager/rendezvous = %d/%d, want %d/0 for empty payloads",
			st.EagerMsgs, st.RendezvousMsgs, total)
	}

	// Stats must be a pure read: a second call returns the same totals
	// (the merged link counters must not accumulate per read).
	if again := rt.Stats(); again != st {
		t.Errorf("second Stats read differs:\n first %+v\nsecond %+v", st, again)
	}
}

// TestResetStats pins the reset semantics: the whole view (including
// the merged fault-plane counters, which the runtime cannot zero at
// the source) restarts from zero, and subsequent work is accounted
// against the new zero only.
func TestResetStats(t *testing.T) {
	rt := New(Config{
		Level: FullMPI, GPUs: 2,
		Fault: &fault.Config{Seed: 7, Drop: 0.2},
	})
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := rt.Send(0, 1, envelope.Tag(i%1000), 0, nil); err != nil {
				t.Fatalf("send: %v", err)
			}
			if _, err := rt.PostRecv(1, 0, envelope.Tag(i%1000), 0); err != nil {
				t.Fatalf("post: %v", err)
			}
		}
		if ok, err := rt.Drain(100_000); err != nil || !ok {
			t.Fatalf("drain: ok=%v err=%v", ok, err)
		}
	}

	run(2000)
	before := rt.Stats()
	if before.Matches != 2000 {
		t.Fatalf("matches = %d, want 2000", before.Matches)
	}
	if before.Drops == 0 || before.Retries == 0 {
		t.Fatalf("fault plane inactive: %+v", before)
	}

	rt.ResetStats()
	if zero := rt.Stats(); zero != (Stats{}) {
		t.Errorf("Stats after ResetStats = %+v, want zero value", zero)
	}

	run(500)
	after := rt.Stats()
	if after.Matches != 500 || after.Sends != 500 {
		t.Errorf("post-reset matches/sends = %d/%d, want 500/500", after.Matches, after.Sends)
	}
	if after.Drops >= before.Drops+before.Matches {
		t.Errorf("post-reset drops %d look cumulative (pre-reset %d)", after.Drops, before.Drops)
	}
	if after.Drops == 0 {
		t.Log("note: no drops in post-reset window (legal, seed-dependent)")
	}
}

// TestStatsAdd sets every numeric leaf of two Stats values, including
// the nested simt.Counters, to distinct nonzero values and asserts that
// Add sums each one: a field without its Add line fails here.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	k := 0
	statLeaves(t, reflect.ValueOf(&a).Elem(), "", func(_ string, f reflect.Value) { k++; setLeaf(f, k) })
	statLeaves(t, reflect.ValueOf(&b).Elem(), "", func(_ string, f reflect.Value) { k++; setLeaf(f, 1000*k) })
	sum := a
	sum.Add(b)

	var want []float64
	statLeaves(t, reflect.ValueOf(a), "", func(_ string, f reflect.Value) { want = append(want, leafValue(f)) })
	i := 0
	statLeaves(t, reflect.ValueOf(b), "", func(_ string, f reflect.Value) { want[i] += leafValue(f); i++ })
	i = 0
	statLeaves(t, reflect.ValueOf(sum), "", func(path string, f reflect.Value) {
		if got := leafValue(f); got != want[i] {
			t.Errorf("Add: Stats%s = %v, want %v", path, got, want[i])
		}
		i++
	})
	if n := reflect.TypeOf(Stats{}).NumField() - 1 + reflect.TypeOf(simt.Counters{}).NumField(); i != n {
		t.Fatalf("walked %d numeric leaves, want %d (every Stats field, Counters expanded)", i, n)
	}
}

// statLeaves calls visit on every numeric leaf of v in field order,
// descending into nested structs; any other field kind fails the test,
// so a new field type must teach this walk (and Add) about itself.
func statLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			statLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
		visit(path, v)
	default:
		t.Fatalf("Stats%s has unsupported kind %v", path, v.Kind())
	}
}

func setLeaf(f reflect.Value, x int) {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(int64(x))
	case reflect.Uint64:
		f.SetUint(uint64(x))
	case reflect.Float64:
		f.SetFloat(float64(x))
	}
}

func leafValue(f reflect.Value) float64 {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		return float64(f.Int())
	case reflect.Uint64:
		return float64(f.Uint())
	default:
		return f.Float()
	}
}
