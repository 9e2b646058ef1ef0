// Package store persists crawl and extraction results as chunked,
// gzip-compressed JSONL — the "structured fact databases" that are the
// end product of information extraction (§1), stored in the chunked
// fashion the paper's war story forced ("we splitted the crawled data
// into chunks of 50 GB", §4.2). Chunking gives failure isolation: one
// corrupt chunk loses one chunk. The package only writes; its tests hold
// the reader a consumer would write.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"webtextie/internal/obs"
)

// Writer writes records into numbered chunk files
// (<dir>/<prefix>-00000.jsonl.gz, ...), rolling over when a chunk exceeds
// the configured uncompressed byte size.
type Writer struct {
	dir, prefix string
	chunkBytes  int64

	file    *os.File
	gz      *gzip.Writer
	buf     *bufio.Writer
	written int64
	chunk   int
	records int64

	cRecords, cChunks, cBytes *obs.Counter
}

// WithMetrics redirects the writer's counters (store.write.records,
// store.write.chunks, store.write.bytes) to the given registry; the
// default is obs.Default(). Returns the writer for chaining.
func (w *Writer) WithMetrics(reg *obs.Registry) *Writer {
	r := obs.Or(reg)
	w.cRecords = r.Counter("store.write.records")
	w.cChunks = r.Counter("store.write.chunks")
	w.cBytes = r.Counter("store.write.bytes")
	return w
}

// NewWriter creates the directory (if needed) and opens the first chunk.
func NewWriter(dir, prefix string, chunkBytes int64) (*Writer, error) {
	if chunkBytes <= 0 {
		chunkBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &Writer{dir: dir, prefix: prefix, chunkBytes: chunkBytes, chunk: -1}
	w.WithMetrics(nil)
	if err := w.roll(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Writer) roll() error {
	if err := w.closeChunk(); err != nil {
		return err
	}
	w.chunk++
	w.cChunks.Inc()
	name := filepath.Join(w.dir, fmt.Sprintf("%s-%05d.jsonl.gz", w.prefix, w.chunk))
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.file = f
	w.gz = gzip.NewWriter(f)
	w.buf = bufio.NewWriter(w.gz)
	w.written = 0
	return nil
}

func (w *Writer) closeChunk() error {
	if w.file == nil {
		return nil
	}
	if err := w.buf.Flush(); err != nil {
		return err
	}
	if err := w.gz.Close(); err != nil {
		return err
	}
	err := w.file.Close()
	w.file = nil
	return err
}

// Write appends one record as a JSON line.
func (w *Writer) Write(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal: %w", err)
	}
	if w.written > 0 && w.written+int64(len(line))+1 > w.chunkBytes {
		if err := w.roll(); err != nil {
			return err
		}
	}
	if _, err := w.buf.Write(line); err != nil {
		return err
	}
	if err := w.buf.WriteByte('\n'); err != nil {
		return err
	}
	w.written += int64(len(line)) + 1
	w.records++
	w.cRecords.Inc()
	w.cBytes.Add(int64(len(line)) + 1)
	return nil
}

// Records returns the number of records written so far.
func (w *Writer) Records() int64 { return w.records }

// Close flushes and closes the current chunk.
func (w *Writer) Close() error { return w.closeChunk() }

// Fact is the flat export row for one extracted entity mention — the
// schema of the "structured fact database" the pipeline produces.
type Fact struct {
	DocID   string `json:"doc"`
	Corpus  string `json:"corpus"`
	Type    string `json:"type"`
	Method  string `json:"method"`
	Surface string `json:"surface"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
}
