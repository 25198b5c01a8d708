package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchengine/internal/core"
)

// legacyV3 and legacyV4 are single-file JSON indexes as the engine wrote
// them before the index directory: "a" and "b" share their first band
// (rows 1,2,3,4), so each is the other's LSH candidate.
const (
	legacyV3 = `{"meta":{"name":"v3db","version":"0.4.0","format":3,"created_at":"2026-01-02T03:04:05Z","updated_at":"2026-01-02T03:04:05Z","record_count":2,"k":4,"signature_size":8,"scheme":"oph","bands":2,"rows_per_band":4,"shards":4},"sketches":[{"name":"a","k":4,"shingles":3,"signature":[1,2,3,4,5,6,7,8]},{"name":"b","k":4,"shingles":3,"signature":[1,2,3,4,9,9,9,9]}]}`
	legacyV4 = `{"meta":{"name":"v4db","version":"0.9.0","format":4,"created_at":"2026-01-02T03:04:05Z","updated_at":"2026-01-02T03:04:05Z","record_count":2,"k":4,"signature_size":8,"scheme":"oph","bits":64,"bands":2,"rows_per_band":4,"shards":4},"sketches":[{"name":"a","k":4,"shingles":3,"signature":[1,2,3,4,5,6,7,8]},{"name":"b","k":4,"shingles":3,"signature":[1,2,3,4,9,9,9,9]}]}`
)

// rejectedImports are the files import must refuse: the corrupt and
// bad-format inputs the legacy loader rejected, plus everything that
// loader accepted but a directory cannot hold (k-minhash formats,
// packed widths).
var rejectedImports = map[string]string{
	"not json":         "not json at all",
	"v1 (k-minhash)":   `{"meta":{"name":"x","k":4,"signature_size":2},"sketches":[]}`,
	"v2 (k-minhash)":   `{"meta":{"name":"x","format":2,"k":4,"signature_size":2,"bands":1,"rows_per_band":2,"shards":4},"sketches":[]}`,
	"v3 kmh scheme":    `{"meta":{"name":"x","format":3,"k":4,"signature_size":2,"scheme":"kmh","bands":1,"rows_per_band":2,"shards":4},"sketches":[]}`,
	"v3 bad scheme":    `{"meta":{"name":"x","format":3,"k":4,"signature_size":2,"scheme":"simhash","bands":1,"rows_per_band":2,"shards":4},"sketches":[]}`,
	"v4 8-bit":         `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bits":8,"bands":1,"rows_per_band":2,"shards":4},"sketches":[{"name":"a","k":4,"shingles":1,"signature":[1,255]}]}`,
	"v4 bad bits":      `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bits":12,"bands":1,"rows_per_band":2,"shards":4},"sketches":[]}`,
	"directory format": `{"meta":{"name":"x","format":6,"k":4,"signature_size":2,"scheme":"oph","bits":8,"bands":1,"rows_per_band":2,"shards":4},"sketches":[]}`,
	"future format":    `{"meta":{"name":"x","format":99,"k":4,"signature_size":2},"sketches":[]}`,
	"bad meta":         `{"meta":{"name":"x","format":4,"k":0,"signature_size":0,"scheme":"oph","bands":1,"rows_per_band":2,"shards":4},"sketches":[]}`,
	"bad bands":        `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bands":3,"rows_per_band":3,"shards":4},"sketches":[]}`,
	"no shards":        `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bands":1,"rows_per_band":2},"sketches":[]}`,
	"absurd shards":    `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bands":1,"rows_per_band":2,"shards":1000000000},"sketches":[]}`,
	"empty name":       `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bands":1,"rows_per_band":2,"shards":4},"sketches":[{"name":"","k":4,"shingles":1,"signature":[1,2]}]}`,
	"wrong sig size":   `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bands":1,"rows_per_band":2,"shards":4},"sketches":[{"name":"a","k":4,"shingles":1,"signature":[1]}]}`,
	"wrong k":          `{"meta":{"name":"x","format":4,"k":4,"signature_size":2,"scheme":"oph","bands":1,"rows_per_band":2,"shards":4},"sketches":[{"name":"a","k":8,"shingles":1,"signature":[1,2]}]}`,
	"duplicate name":   `{"meta":{"name":"x","format":4,"k":4,"signature_size":1,"scheme":"oph","bands":1,"rows_per_band":1,"shards":4},"sketches":[{"name":"a","k":4,"shingles":1,"signature":[1]},{"name":"a","k":4,"shingles":1,"signature":[2]}]}`,
	"null sketch":      `{"meta":{"name":"x","format":4,"k":4,"signature_size":1,"scheme":"oph","bands":1,"rows_per_band":1,"shards":4},"sketches":[null]}`,
}

// TestCLIImport converts format-3 and format-4 files through the CLI:
// the file's parameters carry over, the prefilter gets the requested
// width while the full-width signatures survive in segments, the
// rebuilt postings serve LSH search, and the source file is untouched.
func TestCLIImport(t *testing.T) {
	for name, payload := range map[string]string{"v3": legacyV3, "v4": legacyV4} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join(dir, "index.json")
			out := filepath.Join(dir, "index")
			if err := os.WriteFile(src, []byte(payload), 0o644); err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := runCLI(t, "import", "-o", out, "-segment-rows", "1", src)
			if code != 0 || !strings.Contains(stdout, "records=2") {
				t.Fatalf("import exited %d: stdout=%q stderr=%q", code, stdout, stderr)
			}
			ix, err := core.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			meta := ix.Metadata()
			if meta.Name != name+"db" || meta.Format != core.FormatV6 || meta.Bits != 8 || meta.Scheme != core.SchemeOPH ||
				meta.K != 4 || meta.SignatureSize != 8 || meta.Bands != 2 || meta.RowsPerBand != 4 || meta.Shards != 4 {
				t.Fatalf("imported metadata = %+v", meta)
			}
			if got := ix.Get("a").Signature; fmt.Sprint(got) != "[1 2 3 4 5 6 7 8]" {
				t.Fatalf("imported signature = %v, want the file's full-width slots", got)
			}
			if res, err := ix.Search(context.Background(), ix.Get("a"), core.Query{Mode: core.ModeLSH, TopK: 1}); err != nil || len(res) != 1 || res[0].Ref != "b" {
				t.Fatalf("LSH search on the imported index = %v, %v; want b", res, err)
			}
			if after, err := os.ReadFile(src); err != nil || string(after) != payload {
				t.Fatalf("import modified its source file: %v", err)
			}
			// The directory is now an index: importing into it again is
			// refused rather than overwriting it.
			if _, stderr, code := runCLI(t, "import", "-o", out, src); code == 0 || !strings.Contains(stderr, "already holds an index") {
				t.Fatalf("second import: code=%d stderr=%q, want a refusal", code, stderr)
			}
		})
	}
}

func TestCLIImportRejects(t *testing.T) {
	for name, payload := range rejectedImports {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join(dir, "index.json")
			if err := os.WriteFile(src, []byte(payload), 0o644); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, "index")
			if _, stderr, code := runCLI(t, "import", "-o", out, src); code != 1 || !strings.Contains(stderr, "import: ") {
				t.Fatalf("import exited %d with stderr %q, want a diagnosed failure", code, stderr)
			}
			if hasManifest(out) {
				t.Fatal("a rejected import left an index behind")
			}
		})
	}
	if _, stderr, code := runCLI(t, "import", "-o", t.TempDir()); code != 1 || !strings.Contains(stderr, "exactly one") {
		t.Fatalf("import without a file: code=%d stderr=%q", code, stderr)
	}
}

// FuzzImport feeds arbitrary bytes to the importer — a legacy file
// comes from outside the process — which must either return an error or
// leave a directory that reopens with exactly the file's records; it
// must never panic.
func FuzzImport(f *testing.F) {
	f.Add([]byte(legacyV3))
	f.Add([]byte(legacyV4))
	for _, payload := range rejectedImports {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "index")
		meta, err := importIndex(bytes.NewReader(data), dir, 0)
		if err != nil {
			return
		}
		ix, err := core.Open(dir)
		if err != nil {
			t.Fatalf("import succeeded but the directory does not reopen: %v", err)
		}
		defer ix.Close()
		page, _, err := ix.Records("", meta.RecordCount+1)
		if err != nil || ix.Len() != meta.RecordCount || ix.Len() != len(page) {
			t.Fatalf("reopened index holds %d records (%d listed, %v), import reported %d", ix.Len(), len(page), err, meta.RecordCount)
		}
	})
}
