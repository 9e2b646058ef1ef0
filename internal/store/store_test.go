package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type row struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

// chunkFiles lists the chunk files of a prefix in order.
func chunkFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, prefix+"-") && strings.HasSuffix(name, ".jsonl.gz") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out
}

// readAll is the reader a consumer of the export would write: it decodes
// every record of a prefix, chunk by chunk, and counts the chunks that do
// not decode to the end. A bad chunk costs only its own remaining records.
func readAll(t *testing.T, dir, prefix string) (recs []row, chunkErrs int) {
	t.Helper()
	for _, path := range chunkFiles(t, dir, prefix) {
		var err error
		if recs, err = readChunk(path, recs); err != nil {
			chunkErrs++
		}
	}
	return recs, chunkErrs
}

func readChunk(path string, recs []row) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return recs, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return recs, err
	}
	defer gz.Close()
	sc := bufio.NewScanner(gz)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "facts", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Write(row{ID: fmt.Sprint("d", i), N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 100 {
		t.Errorf("records = %d", w.Records())
	}

	got, chunkErrs := readAll(t, dir, "facts")
	if chunkErrs != 0 {
		t.Fatalf("chunkErrs=%d", chunkErrs)
	}
	if len(got) != 100 {
		t.Fatalf("read %d records", len(got))
	}
	for i, r := range got {
		if r.N != i {
			t.Fatalf("order broken at %d: %+v", i, r)
		}
	}
}

func TestChunkRollover(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "x", 200) // tiny chunks
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Write(row{ID: "document-with-a-long-identifier", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.chunk+1 < 5 {
		t.Fatalf("chunks = %d, want several", w.chunk+1)
	}
	if files := chunkFiles(t, dir, "x"); len(files) != w.chunk+1 {
		t.Fatalf("files = %d, chunks = %d", len(files), w.chunk+1)
	}
	if got, chunkErrs := readAll(t, dir, "x"); len(got) != 50 || chunkErrs != 0 {
		t.Fatalf("read %d, %d chunk errors", len(got), chunkErrs)
	}
}

func TestCorruptChunkIsolated(t *testing.T) {
	dir := t.TempDir()
	w, _ := NewWriter(dir, "y", 150)
	for i := 0; i < 30; i++ {
		_ = w.Write(row{ID: "some-identifier-string", N: i})
	}
	_ = w.Close()
	files := chunkFiles(t, dir, "y")
	if len(files) < 3 {
		t.Skip("need several chunks")
	}
	// Corrupt the middle chunk.
	if err := os.WriteFile(files[1], []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, chunkErrs := readAll(t, dir, "y")
	n := len(got)
	if chunkErrs != 1 {
		t.Errorf("chunkErrs = %d, want 1", chunkErrs)
	}
	if n == 0 || n >= 30 {
		t.Errorf("records = %d, want partial recovery", n)
	}
}

func TestChunkFilesFiltersPrefix(t *testing.T) {
	dir := t.TempDir()
	w, _ := NewWriter(dir, "a", 1<<20)
	_ = w.Write(row{ID: "x"})
	_ = w.Close()
	w2, _ := NewWriter(dir, "b", 1<<20)
	_ = w2.Write(row{ID: "y"})
	_ = w2.Close()
	// A stray file that must be ignored.
	_ = os.WriteFile(filepath.Join(dir, "a-junk.txt"), []byte("junk"), 0o644)

	if files := chunkFiles(t, dir, "a"); len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
}
