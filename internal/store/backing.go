package store

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Backing is the I/O surface a paged store runs on: a flat addressable byte
// array with explicit durability points. The real implementation is a file
// (Open); tests inject a MemBacking to run the store in memory and to
// simulate crashes at arbitrary write boundaries. The store's committer
// calls WriteAt and Sync from its own goroutine while ReadAt may run on the
// caller's, always on pages the committer is not writing, so an
// implementation must allow ReadAt concurrently with the other two.
type Backing interface {
	io.ReaderAt
	io.WriterAt
	// Sync makes every completed WriteAt durable before returning.
	Sync() error
	// Size returns the current extent in bytes.
	Size() (int64, error)
	Close() error
}

// fileBacking adapts an os.File to Backing.
type fileBacking struct{ f *os.File }

func (b fileBacking) ReadAt(p []byte, off int64) (int, error)  { return b.f.ReadAt(p, off) }
func (b fileBacking) WriteAt(p []byte, off int64) (int, error) { return b.f.WriteAt(p, off) }
func (b fileBacking) Sync() error                              { return b.f.Sync() }
func (b fileBacking) Close() error                             { return b.f.Close() }

func (b fileBacking) Size() (int64, error) {
	st, err := b.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// writeOp is one journaled WriteAt, kept so MemBacking can replay any byte
// prefix of the write history — the failpoint behind the crash tests.
type writeOp struct {
	off  int64
	data []byte
}

// MemBacking is an in-memory Backing that journals every write. Beyond
// serving reads and writes like a file, it can reconstruct the exact byte
// image the backing had after any prefix of the journaled write bytes
// (Snapshot), so a crash-recovery test can "kill" the store at every byte
// boundary of a commit without forking processes.
type MemBacking struct {
	mu      sync.Mutex
	data    []byte
	journal []writeOp
	syncs   []int64 // journal byte totals at each Sync call
	total   int64   // journal bytes written so far
}

// NewMemBacking returns an empty in-memory backing.
func NewMemBacking() *MemBacking { return &MemBacking{} }

// ReadAt implements Backing.
func (m *MemBacking) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Backing, journaling the write.
func (m *MemBacking) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if grow := off + int64(len(p)); grow > int64(len(m.data)) {
		m.data = append(m.data, make([]byte, grow-int64(len(m.data)))...)
	}
	copy(m.data[off:], p)
	m.journal = append(m.journal, writeOp{off: off, data: append([]byte(nil), p...)})
	m.total += int64(len(p))
	return len(p), nil
}

// Sync implements Backing, recording a durability point in the journal.
func (m *MemBacking) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs = append(m.syncs, m.total)
	return nil
}

// Size implements Backing.
func (m *MemBacking) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Close implements Backing; the contents survive so the backing can be
// reopened, as a file would be.
func (m *MemBacking) Close() error { return nil }

// JournalBytes returns the total bytes written so far, the upper bound for
// Snapshot prefixes.
func (m *MemBacking) JournalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// SyncPoints returns the journal byte totals at which Sync was called: a
// crash after SyncPoints()[i] bytes is a crash after the i-th durability
// point.
func (m *MemBacking) SyncPoints() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int64(nil), m.syncs...)
}

// Snapshot replays the write journal from an empty backing through exactly
// prefix bytes — a write straddling the cut is applied partially, torn
// mid-page like a real crash — and returns the resulting image as a fresh
// MemBacking. The receiver is unchanged.
func (m *MemBacking) Snapshot(prefix int64) *MemBacking {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prefix > m.total {
		panic(fmt.Sprintf("store: snapshot prefix %d beyond the %d journaled bytes", prefix, m.total))
	}
	out := &MemBacking{}
	remaining := prefix
	for _, op := range m.journal {
		if remaining <= 0 {
			break
		}
		data := op.data
		if int64(len(data)) > remaining {
			data = data[:remaining]
		}
		if grow := op.off + int64(len(data)); grow > int64(len(out.data)) {
			out.data = append(out.data, make([]byte, grow-int64(len(out.data)))...)
		}
		copy(out.data[op.off:], data)
		remaining -= int64(len(data))
	}
	return out
}
