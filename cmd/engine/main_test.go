package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func testdata(name string) string { return filepath.Join("testdata", name) }

// TestCLIGolden drives the full sketch -> search -> dist pipeline over
// committed testdata, on a directory index, and compares output
// against the golden file. Sketch hashing is deterministic, so the
// output is byte-stable.
func TestCLIGolden(t *testing.T) {
	index := filepath.Join(t.TempDir(), "index")

	var out strings.Builder

	stdout, stderr, code := runCLI(t, "sketch", "-o", index, "-name", "golden",
		testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt"))
	if code != 0 {
		t.Fatalf("sketch failed (%d): %s", code, stderr)
	}
	out.WriteString("== sketch ==\n" + stdout)

	// Re-sketching one file must skip it, leaving the index unchanged.
	stdout, stderr, code = runCLI(t, "sketch", "-o", index, testdata("alpha.txt"))
	if code != 0 {
		t.Fatalf("incremental sketch failed (%d): %s", code, stderr)
	}
	out.WriteString("== sketch again ==\n" + stdout)

	stdout, stderr, code = runCLI(t, "search", "-d", index, "-top", "2", "-threads", "2",
		testdata("beta.txt"))
	if code != 0 {
		t.Fatalf("search failed (%d): %s", code, stderr)
	}
	out.WriteString("== search ==\n" + stdout)

	stdout, stderr, code = runCLI(t, "dist", "-threads", "2",
		testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt"))
	if code != 0 {
		t.Fatalf("dist failed (%d): %s", code, stderr)
	}
	out.WriteString("== dist ==\n" + stdout)

	golden := testdata("cli_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("CLI output differs from golden file.\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

func TestCLIThreadsFlag(t *testing.T) {
	// Output must be identical regardless of worker count.
	var outputs []string
	for _, threads := range []string{"1", "4"} {
		stdout, stderr, code := runCLI(t, "dist", "-threads", threads,
			testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt"))
		if code != 0 {
			t.Fatalf("dist -threads %s failed (%d): %s", threads, code, stderr)
		}
		outputs = append(outputs, stdout)
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("output depends on thread count:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// TestCLISearchModesAgree: on the golden corpus, LSH mode must return
// the same top-K output as exact mode, byte for byte.
func TestCLISearchModesAgree(t *testing.T) {
	index := filepath.Join(t.TempDir(), "index")
	if _, stderr, code := runCLI(t, "sketch", "-o", index,
		testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt")); code != 0 {
		t.Fatalf("sketch failed (%d): %s", code, stderr)
	}
	var outputs []string
	for _, mode := range []string{"lsh", "exact"} {
		stdout, stderr, code := runCLI(t, "search", "-d", index, "-top", "2", "-mode", mode,
			testdata("beta.txt"), testdata("alpha.txt"))
		if code != 0 {
			t.Fatalf("search -mode %s failed (%d): %s", mode, code, stderr)
		}
		outputs = append(outputs, stdout)
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("lsh and exact modes disagree:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// TestCLILSHFlags drives -bands/-rows/-shards through sketch and
// -bands/-rows through search: a retuned index must keep returning
// identical results, conflicting flags on an existing index are warned
// about and ignored, and search has no -shards (the stripe count is
// fixed at creation).
func TestCLILSHFlags(t *testing.T) {
	index := filepath.Join(t.TempDir(), "index")
	if _, stderr, code := runCLI(t, "sketch", "-o", index, "-bands", "16", "-rows", "8", "-shards", "4",
		testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt")); code != 0 {
		t.Fatalf("sketch failed (%d): %s", code, stderr)
	}
	base, stderr, code := runCLI(t, "search", "-d", index, "-top", "2", testdata("beta.txt"))
	if code != 0 {
		t.Fatalf("search failed (%d): %s", code, stderr)
	}
	// Retune the banding at search time; results must not change (the
	// fallback guarantees completeness on a 3-record corpus).
	retuned, stderr, code := runCLI(t, "search", "-d", index, "-top", "2",
		"-bands", "64", "-rows", "2", testdata("beta.txt"))
	if code != 0 {
		t.Fatalf("retuned search failed (%d): %s", code, stderr)
	}
	if base != retuned {
		t.Fatalf("retuned search differs:\n%s\nvs\n%s", base, retuned)
	}
	// Re-sketching with conflicting LSH flags warns and keeps the
	// index's stored parameters.
	_, stderr, code = runCLI(t, "sketch", "-o", index, "-bands", "32", "-rows", "4",
		testdata("alpha.txt"))
	if code != 0 {
		t.Fatalf("re-sketch failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stderr, "ignoring -bands/-rows/-shards") {
		t.Fatalf("want conflicting-flags warning, got: %q", stderr)
	}
	// So does -segment-rows, which only shapes a new directory.
	_, stderr, code = runCLI(t, "sketch", "-o", index, "-segment-rows", "7", testdata("alpha.txt"))
	if code != 0 || !strings.Contains(stderr, "ignoring -segment-rows 7") {
		t.Fatalf("re-sketch with -segment-rows: code=%d stderr=%q, want an ignored-flag warning", code, stderr)
	}
	if _, _, code = runCLI(t, "search", "-d", index, "-shards", "2", testdata("beta.txt")); code != 2 {
		t.Fatalf("search -shards exited %d, want 2 (no such flag)", code)
	}
}

// TestCLIRemovedFlags: the flags that chose between storage layouts and
// sketch schemes are gone from every subcommand.
func TestCLIRemovedFlags(t *testing.T) {
	for _, cmd := range []string{"sketch", "search", "serve"} {
		_, help, code := runCLI(t, cmd, "-h")
		if code != 0 {
			t.Fatalf("%s -h exited %d", cmd, code)
		}
		for _, gone := range []string{"-tiered", "-data-dir", "-scheme"} {
			if strings.Contains(help, "  "+gone+" ") || strings.Contains(help, "  "+gone+"\n") {
				t.Errorf("%s -h still lists %s:\n%s", cmd, gone, help)
			}
		}
	}
}

// TestCLIBitsFlag pins the one prefilter width end to end: `search -v`
// reports a 4-bit arena of 64 bytes per record and the tier footprint,
// `sketch` writes bits 8 into the manifest (the one width older builds
// accept), a directory whose manifest says 4, 8, 16 or 64 searches
// byte-identically, and there is no -bits flag.
func TestCLIBitsFlag(t *testing.T) {
	dir := t.TempDir()
	packed := filepath.Join(dir, "packed")
	inputs := []string{testdata("alpha.txt"), testdata("beta.txt"), testdata("gamma.txt")}
	if _, stderr, code := runCLI(t, append([]string{"sketch", "-o", packed, "-segment-rows", "2"}, inputs...)...); code != 0 {
		t.Fatalf("sketch failed (%d): %s", code, stderr)
	}
	if got := manifestBits(t, packed); got != 8 {
		t.Fatalf("sketch wrote manifest bits %v, want 8", got)
	}
	want, stderr, code := runCLI(t, "search", "-d", packed, "-top", "2", "-v", testdata("beta.txt"))
	if code != 0 {
		t.Fatalf("search failed (%d): %s", code, stderr)
	}
	// -v reports the arena memory on stderr — 128 slots at 4 bits is 64
	// bytes per record — and the tier line (resident vs mapped bytes).
	if !strings.Contains(stderr, "bits=4 ") || !strings.Contains(stderr, "bytes_per_record=64.0") {
		t.Fatalf("search -v stderr = %q, want arena report with bits=4 bytes_per_record=64.0", stderr)
	}
	if !strings.Contains(stderr, "resident_bytes=") || !strings.Contains(stderr, "mapped_bytes=") {
		t.Fatalf("search -v did not report tier bytes: %s", stderr)
	}
	// ...and which scan kernel the process selected for this index.
	if !strings.Contains(stderr, "scan_kernel=avx512") && !strings.Contains(stderr, "scan_kernel=avx2") &&
		!strings.Contains(stderr, "scan_kernel=portable") {
		t.Fatalf("search -v did not name the scan kernel: %s", stderr)
	}
	for _, bits := range []int{4, 8, 16, 64} {
		ix := filepath.Join(dir, "bits-"+strconv.Itoa(bits))
		if _, stderr, code := runCLI(t, append([]string{"sketch", "-o", ix, "-segment-rows", "2"}, inputs...)...); code != 0 {
			t.Fatalf("sketch failed (%d): %s", code, stderr)
		}
		setManifestBits(t, ix, bits)
		got, stderr, code := runCLI(t, "search", "-d", ix, "-top", "2", "-v", testdata("beta.txt"))
		if code != 0 {
			t.Fatalf("search of a bits-%d manifest failed (%d): %s", bits, code, stderr)
		}
		if got != want || !strings.Contains(stderr, "bits=4 ") {
			t.Fatalf("bits-%d manifest searches as\n%s(stderr %q)\nwant, at 4 bits,\n%s", bits, got, stderr, want)
		}
	}
	for _, cmd := range []string{"sketch", "serve", "import"} {
		if _, _, code := runCLI(t, cmd, "-bits", "8", testdata("alpha.txt")); code != 2 {
			t.Errorf("%s -bits 8 exited %d, want 2 (no such flag)", cmd, code)
		}
	}
}

// manifestBits reads the bits field of the index directory's manifest.
func manifestBits(t *testing.T, dir string) float64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	bits, _ := m["meta"].(map[string]any)["bits"].(float64)
	return bits
}

// setManifestBits rewrites the bits field of the index directory's
// manifest, as an older build would have written it.
func setManifestBits(t *testing.T, dir string, bits int) {
	t.Helper()
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["meta"].(map[string]any)["bits"] = bits
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCLIProfileFlags: -cpuprofile/-memprofile must leave non-empty
// pprof files behind on a successful run.
func TestCLIProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	_, stderr, code := runCLI(t, "dist", "-cpuprofile", cpu, "-memprofile", mem,
		testdata("alpha.txt"), testdata("beta.txt"))
	if code != 0 {
		t.Fatalf("dist with profiles failed (%d): %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// An unwritable profile path fails up front, not silently.
	if _, _, code := runCLI(t, "dist", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"),
		testdata("alpha.txt"), testdata("beta.txt")); code == 0 {
		t.Fatal("unwritable -cpuprofile path: want nonzero exit")
	}
}

func TestCLIErrors(t *testing.T) {
	nope := filepath.Join(t.TempDir(), "nope")
	cases := []struct {
		name string
		args []string
	}{
		{"no args", nil},
		{"unknown command", []string{"frobnicate"}},
		{"sketch no files", []string{"sketch", "-o", nope}},
		{"dist one file", []string{"dist", testdata("alpha.txt")}},
		{"search no index at the default ./index", []string{"search", testdata("alpha.txt")}},
		{"search no queries", []string{"search", "-d", testdata("alpha.txt")}},
		{"search missing index", []string{"search", "-d", nope, testdata("beta.txt")}},
		{"search a file, not a directory", []string{"search", "-d", testdata("alpha.txt"), testdata("beta.txt")}},
		{"sketch into a file, not a directory", []string{"sketch", "-o", testdata("alpha.txt"), testdata("beta.txt")}},
		{"missing input", []string{"dist", "testdata/does-not-exist.txt", testdata("alpha.txt")}},
		{"search bad mode", []string{"search", "-d", testdata("alpha.txt"), "-mode", "fuzzy", testdata("beta.txt")}},
		{"sketch bad banding", []string{"sketch", "-o", nope, "-bands", "3", "-rows", "3", testdata("alpha.txt")}},
		{"dist removed -scheme", []string{"dist", "-scheme", "oph", testdata("alpha.txt"), testdata("beta.txt")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, tc.args...)
			if code == 0 {
				t.Fatalf("want nonzero exit, got 0 (stderr: %s)", stderr)
			}
			if stderr == "" {
				t.Fatal("want error message on stderr")
			}
		})
	}
}

// TestCLIFileIndexPointsAtImport: every subcommand handed a regular
// file where an index directory belongs fails naming the importer.
func TestCLIFileIndexPointsAtImport(t *testing.T) {
	file := testdata("alpha.txt")
	for _, args := range [][]string{
		{"sketch", "-o", file, testdata("beta.txt")},
		{"search", "-d", file, testdata("beta.txt")},
		{"serve", "-addr", "127.0.0.1:0", "-d", file},
	} {
		if _, stderr, code := runCLI(t, args...); code != 1 || !strings.Contains(stderr, "engine import") {
			t.Errorf("%v: code=%d stderr=%q, want a failure naming engine import", args, code, stderr)
		}
	}
}

func TestCLIVersion(t *testing.T) {
	stdout, _, code := runCLI(t, "version")
	if code != 0 || !strings.HasPrefix(stdout, "engine ") {
		t.Fatalf("version: code=%d stdout=%q", code, stdout)
	}
}

func TestCLIDuplicateRecordNames(t *testing.T) {
	// Two paths with the same base name would silently collide; the CLI
	// must reject them.
	dir := t.TempDir()
	dup := filepath.Join(dir, "alpha.txt")
	if err := os.WriteFile(dup, []byte("different content"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "dist", testdata("alpha.txt"), dup)
	if code == 0 || !strings.Contains(stderr, "duplicate record name") {
		t.Fatalf("want duplicate-name error, got code=%d stderr=%q", code, stderr)
	}
}
