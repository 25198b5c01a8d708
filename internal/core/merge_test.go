package core

import "testing"

// TestMergeTopK: the exported merge must agree with a full sort — the
// property the cluster coordinator's scatter-gather relies on — and
// must copy out of the caller's buffer.
func TestMergeTopK(t *testing.T) {
	mk := func(ref string, sim float64) Result {
		return Result{Query: "q", Ref: ref, Similarity: sim, Distance: 1 - sim}
	}
	in := []Result{
		mk("e", 0.2), mk("a", 0.9), mk("c", 0.5), mk("b", 0.9),
		mk("f", 0.1), mk("d", 0.5), mk("g", 0.7),
	}
	// The full order, spelled out: descending similarity, ties by ref.
	want := []Result{
		mk("a", 0.9), mk("b", 0.9), mk("g", 0.7), mk("c", 0.5),
		mk("d", 0.5), mk("e", 0.2), mk("f", 0.1),
	}

	for _, k := range []int{1, 3, len(in), len(in) + 5} {
		buf := make([]Result, len(in))
		copy(buf, in)
		got := MergeTopK(buf, k)
		n := k
		if n > len(in) {
			n = len(in)
		}
		if len(got) != n {
			t.Fatalf("MergeTopK(k=%d) returned %d results, want %d", k, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MergeTopK(k=%d)[%d] = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}

	// The result must not alias the (possibly pooled) input buffer.
	buf := make([]Result, len(in))
	copy(buf, in)
	got := MergeTopK(buf, 3)
	buf[0] = mk("mutated", 1.0)
	if got[0].Ref == "mutated" {
		t.Fatal("MergeTopK result aliases the input buffer")
	}

	if MergeTopK(nil, 5) != nil {
		t.Fatal("MergeTopK(nil) != nil")
	}
	if MergeTopK(buf, 0) != nil || MergeTopK(buf, -1) != nil {
		t.Fatal("MergeTopK with topK <= 0 should return nil")
	}
}
