package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sketchengine/internal/core"
)

// legacyIndex is the single-file JSON layout that predates the index
// directory: one metadata object and every sketch's per-slot values.
type legacyIndex struct {
	Meta     core.Metadata  `json:"meta"`
	Sketches []*core.Sketch `json:"sketches"`
}

func cmdImport(argv []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("import", stderr)
	out := fs.String("o", defaultIndexDir, "index directory to create (must not hold an index already)")
	segRows := segmentRowsFlag(fs)
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("import: want exactly one legacy JSON index file, got %d arguments", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	defer f.Close()
	meta, err := importIndex(f, *out, *segRows)
	if err != nil {
		return fmt.Errorf("import: %s: %w", fs.Arg(0), err)
	}
	fmt.Fprintf(stdout, "index\t%s\trecords=%d\tk=%d\tsize=%d\tbits=%d\tdir=%s\n",
		meta.Name, meta.RecordCount, meta.K, meta.SignatureSize, meta.Bits, *out)
	return nil
}

// importIndex converts the legacy single-file JSON index read from r
// into a new index directory at dir: ordinary adds into a fresh index
// with the file's parameters, then one SaveDir. Only formats 3 and 4
// with the OPH scheme at full width convert — older files were sketched
// with the removed k-minhash scheme, so queries could no longer be
// sketched compatibly, and packed (8/16-bit) files discarded the
// full-width slots a directory stores. Those are rebuilt from source
// data instead.
func importIndex(r io.Reader, dir string, segRows int) (core.Metadata, error) {
	var f legacyIndex
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return core.Metadata{}, fmt.Errorf("decode: %w", err)
	}
	m := f.Meta
	switch {
	case m.Format == core.FormatV5 || m.Format == core.FormatV6:
		return m, fmt.Errorf("format %d is the index directory format, not a legacy file; use the directory itself", m.Format)
	case m.Format != 3 && m.Format != 4:
		return m, fmt.Errorf("format %d cannot be imported (only formats 3 and 4); rebuild the index from source data", m.Format)
	case m.Scheme != core.SchemeOPH:
		return m, fmt.Errorf("scheme %q cannot be imported (only %q); rebuild the index from source data", m.Scheme, core.SchemeOPH)
	case m.Format == 4 && m.Bits != 0 && m.Bits != 64:
		return m, fmt.Errorf("a %d-bit packed index discarded its full-width signatures and cannot be imported; rebuild it from source data", m.Bits)
	case m.K <= 0 || m.SignatureSize <= 0 || m.Shards <= 0:
		return m, fmt.Errorf("invalid metadata: k=%d signature_size=%d shards=%d", m.K, m.SignatureSize, m.Shards)
	}
	// Explicit, because NewEngine would default a zero banding scheme.
	if _, err := core.NewLSHParams(m.Bands, m.RowsPerBand, m.SignatureSize); err != nil {
		return m, fmt.Errorf("invalid metadata: %w", err)
	}
	for i, s := range f.Sketches {
		if s == nil {
			return m, fmt.Errorf("sketch %d is null", i)
		}
	}
	if hasManifest(dir) {
		return m, fmt.Errorf("%s already holds an index; import creates a new directory", dir)
	}
	eng, err := core.NewEngine(core.Options{
		K: m.K, SignatureSize: m.SignatureSize, IndexName: m.Name,
		Bands: m.Bands, RowsPerBand: m.RowsPerBand, Shards: m.Shards,
		Tiered: true, DataDir: dir, SegmentRows: segRows,
	})
	if err != nil {
		return m, err
	}
	ix := eng.Index()
	defer ix.Close()
	// Add validates each sketch's name, k and signature length against
	// the index, as the legacy loader did against the file's metadata.
	oks, err := eng.AddSketches(f.Sketches)
	if err != nil {
		return m, err
	}
	for i, ok := range oks {
		if !ok {
			return m, fmt.Errorf("duplicate sketch name %q", f.Sketches[i].Name)
		}
	}
	if err := ix.SaveDir(); err != nil {
		return m, err
	}
	return ix.Metadata(), nil
}
