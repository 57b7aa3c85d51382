package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"sunmap/internal/obs"
)

// fsyncSeconds distributes the write+fsync latency of journal appends —
// the durability tax every acknowledged submission and lifecycle
// transition pays, and the first suspect when job throughput drops.
var fsyncSeconds = obs.Default.Histogram("sunmap_journal_fsync_seconds", "journal append write+fsync latency", nil)

// The journal is the store's only durable state: an append-only file of
// length- and checksum-framed JSON records, fsync'd per append. Replay
// reads frames until the first one that fails its length or CRC check —
// the torn tail a crash leaves behind — truncates the file there, and
// hands the clean prefix to the store to rebuild from. Compaction
// rewrites the file with one submit + latest checkpoint + terminal
// record per live job, atomically, so the journal stays proportional to
// the job population rather than the append history.
//
// Frame layout: 4-byte big-endian payload length, 4-byte IEEE CRC-32 of
// the payload, payload JSON. The length is bounded (maxFrame) so a
// corrupt length field cannot provoke a giant allocation.

const maxFrame = 64 << 20

// recType enumerates journal record types.
const (
	recSubmit = "submit" // job created: ID, Kind, Payload
	recState  = "state"  // lifecycle transition: ID, State (+ Error for failed)
	recCkpt   = "ckpt"   // resume point: ID, Ckpt
	recResult = "result" // successful completion: ID, Result
	recGC     = "gc"     // retention expiry: ID (job forgotten)
)

// record is one journal entry. At carries the store clock's unix
// nanoseconds at append time — replay uses it to restart retention
// timers, never for ordering (file order is the order).
// Payload, Ckpt and Result are opaque caller bytes (encoding/json
// base64s them), so the journal never assumes job payloads are JSON.
type record struct {
	Type    string `json:"type"`
	ID      string `json:"id"`
	Kind    string `json:"kind,omitempty"`
	Req     string `json:"req,omitempty"` // request-correlation id (submits)
	Payload []byte `json:"payload,omitempty"`
	State   State  `json:"state,omitempty"`
	Error   string `json:"error,omitempty"`
	Ckpt    []byte `json:"ckpt,omitempty"`
	Result  []byte `json:"result,omitempty"`
	At      int64  `json:"at,omitempty"`
}

// journal owns the open journal file. All methods are called with the
// store's mutex held, so the file sees appends in a single total order.
type journal struct {
	path string
	f    *os.File
	// fault, when set, is the chaos hook: it runs before every append
	// and its error is returned as the append's failure.
	fault func(rec record) error
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &journal{path: path, f: f}, nil
}

// replay reads every intact record, truncates any torn tail, and seeks
// to the end for appending.
func (j *journal) replay() ([]record, error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("jobs: replaying journal: %w", err)
	}
	var (
		recs []record
		off  int64
		hdr  [8]byte
	)
	for {
		if _, err := io.ReadFull(j.f, hdr[:]); err != nil {
			break // clean EOF or torn header: both end the intact prefix
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxFrame {
			break
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(j.f, buf); err != nil {
			break
		}
		if crc32.ChecksumIEEE(buf) != sum {
			break
		}
		var rec record
		if err := json.Unmarshal(buf, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += int64(8 + n)
	}
	if err := j.f.Truncate(off); err != nil {
		return nil, fmt.Errorf("jobs: truncating torn journal tail: %w", err)
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("jobs: replaying journal: %w", err)
	}
	return recs, nil
}

// append frames, writes and fsyncs one record. An error means the
// record may not be durable; callers decide whether that fails the
// operation (submits) or degrades it (mid-run progress records).
func (j *journal) append(rec record) error {
	if j == nil {
		return nil
	}
	if j.fault != nil {
		if err := j.fault(rec); err != nil {
			return fmt.Errorf("jobs: journal write: %w", err)
		}
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	frame := make([]byte, 8+len(buf))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(buf)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(buf))
	copy(frame[8:], buf)
	start := obs.Now()
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("jobs: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: journal sync: %w", err)
	}
	fsyncSeconds.ObserveSeconds(int64(obs.Since(start)))
	return nil
}

// rewrite atomically replaces the journal with the given records (a
// compaction): write to a temp file in the same directory, fsync,
// rename over the old path, and reopen for appending.
func (j *journal) rewrite(recs []record) error {
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, rec := range recs {
		buf, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("jobs: compacting journal: %w", err)
		}
		frame := make([]byte, 8+len(buf))
		binary.BigEndian.PutUint32(frame[:4], uint32(len(buf)))
		binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(buf))
		copy(frame[8:], buf)
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("jobs: compacting journal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: reopening compacted journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return err
	}
	j.f.Close()
	j.f = f
	return nil
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
