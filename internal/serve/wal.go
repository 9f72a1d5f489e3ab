// The durable intake journal (DESIGN.md §16): every accepted delivery
// is appended to a per-source, sha256-checksummed, rotated segment
// file *before* it is acknowledged, stamped with the client's delivery
// ID. Restarting with the same journal replays the unfolded bytes in
// declared source order ahead of the live buffers, so a crashed run
// resumes byte-identical to an uninterrupted one, and redelivered
// POSTs (at-least-once transport) are deduplicated by ID into an
// exactly-once fold.
//
// Segment layout: one header line
//
//	fullweb-wal1 segment <escaped-source> <seq>
//
// followed by framed records, each a header line plus the raw payload
// bytes:
//
//	fullweb-wal1 d id=<escaped-id> len=<n> sha256=<hex>
//	<n payload bytes>
//	fullweb-wal1 c id= len=0 sha256=<hex-of-empty>
//
// Recovery policy, in order of preference: a record torn at the tail
// of the final segment is truncated back to the last valid checksum
// (the delivery was never acknowledged — the client retries it); a
// checksum-corrupt record anywhere else quarantines that whole segment
// and every later one (renamed *.quarantined, never folded) and the
// operator re-requests from the last good delivery ID; sync failures
// and budget exhaustion latch the journal into shed mode — intake
// refuses new deliveries with 503 while the engine keeps folding what
// was already journaled.

package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fullweb/internal/faultpoint"
	"fullweb/internal/telemetry"
)

// The journal's registered fault-injection sites (DESIGN.md §11, §16):
//
//	serve.wal.append — fail the segment write for one delivery
//	serve.wal.sync   — fail the fsync that makes a delivery durable
//	serve.wal.rotate — fail cutting over to the next segment file
//	serve.wal.replay — fail reading the journal back at restart
var (
	fpWALAppend = faultpoint.NewSite("serve.wal.append")
	fpWALSync   = faultpoint.NewSite("serve.wal.sync")
	fpWALRotate = faultpoint.NewSite("serve.wal.rotate")
	fpWALReplay = faultpoint.NewSite("serve.wal.replay")
)

var (
	// ErrWALShed is returned for deliveries refused because the journal
	// latched into shed mode (disk fault or budget exhausted) — the
	// HTTP 503 signal; journaled state keeps folding.
	ErrWALShed = errors.New("serve: intake shed, journal unavailable")
	// ErrWALNotReady is returned for deliveries that arrive after the
	// listeners bind but before Run has opened (and replayed) the
	// journal; clients retry, idempotently when they stamp IDs.
	ErrWALNotReady = errors.New("serve: journal not open yet")
)

// WAL sizing defaults.
const (
	// DefaultWALSegmentBytes rotates a source's segment file once it
	// grows past this size.
	DefaultWALSegmentBytes int64 = 8 << 20
	// DefaultWALSyncBytes is 0: no forced fsync cadence. Acknowledged
	// deliveries are journaled before the ack, so a process crash
	// loses nothing — the page cache survives it and the kernel
	// writes it back on its own schedule. Only a whole-machine power
	// loss can take unsynced bytes; operators who need that window
	// bounded set -wal-sync-bytes > 0, which queues a background
	// fsync every so many journaled bytes (and makes completion,
	// rotation and close sync inline) at a real throughput cost on
	// small machines — forced writeback competes with the fold for
	// CPU.
	DefaultWALSyncBytes int64 = 0
	// DefaultWALCheckpointBytes is the supervisor cadence: request an
	// engine checkpoint whenever this many journaled bytes are not yet
	// covered by the last checkpoint.
	DefaultWALCheckpointBytes int64 = 4 << 20
)

const (
	walMagic        = "fullweb-wal1"
	walQuarantined  = ".quarantined"
	walSegmentGlob  = ".wal"
	walSeqDigits    = 8
	walMaxHeaderLen = 4096
)

// walNewline is the line-count separator, hoisted so the per-delivery
// bytes.Count stays allocation-free.
var walNewline = []byte("\n")

// WALConfig parameterizes the durable intake journal.
type WALConfig struct {
	// Dir is the journal directory (required; created if missing).
	Dir string
	// SegmentBytes rotates segments past this size; 0 means
	// DefaultWALSegmentBytes.
	SegmentBytes int64
	// SyncBytes is the background fsync cadence in unsynced payload
	// bytes (1 = queue a sync after every delivery). 0 disables the
	// cadence: the journal is process-crash durable via the page
	// cache and the kernel's own writeback, but a power loss can take
	// unsynced bytes.
	SyncBytes int64
	// DiskBudgetBytes caps the journal's on-disk footprint; appends
	// past it shed intake. 0 means unbounded.
	DiskBudgetBytes int64
	// CheckpointBytes is the supervisor cadence (journaled bytes not
	// covered by a checkpoint before one is requested); 0 means
	// DefaultWALCheckpointBytes. Only meaningful with checkpointing.
	CheckpointBytes int64
	// Resume accepts an existing journal and replays it. Without it an
	// already-populated journal directory is refused — starting a fresh
	// run over a stale journal would splice old bytes into new state.
	Resume bool
}

func (c WALConfig) withDefaults() WALConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultWALSegmentBytes
	}
	if c.SyncBytes < 0 {
		c.SyncBytes = 0
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = DefaultWALCheckpointBytes
	}
	return c
}

// walMark is one delivery boundary: the source's cumulative newline
// and payload-byte totals after it — the grid the line→byte lag
// mapping rounds down on.
type walMark struct {
	lines int64
	bytes int64
}

// walSource is one source's journal state: the open segment plus
// cumulative accounting. Guarded by the manager mutex.
type walSource struct {
	name       string
	f          *os.File
	seq        int64
	segBytes   int64 // bytes written to the open segment
	unsynced   int64 // payload bytes since the last fsync
	syncQueued bool  // one outstanding background-sync request at most

	bytes      int64 // cumulative journaled payload bytes
	lines      int64 // cumulative journaled newlines
	deliveries int64
	complete   bool
	marks      []walMark
}

// walManager owns the journal directory. Append-path methods are
// called under the intake mutex with the manager mutex nested inside;
// the supervisor reads stats under the manager mutex alone, so lock
// ordering is always intake → manager.
type walManager struct {
	mu   sync.Mutex
	cfg  WALConfig
	logf func(string, ...any)

	order  []*walSource
	byName map[string]*walSource

	shed       bool
	shedReason string

	diskBytes  int64 // on-disk footprint: headers, payloads, quarantined files
	segments   int64
	duplicates int64

	// Recovery accounting, fixed at open time.
	replayedBytes   int64
	quarantinedSegs int64
	truncatedBytes  int64

	// Background sync cadence: appends queue sources here instead of
	// fsyncing inline, so acknowledgment latency never includes disk
	// writeback. Guarded by mu (sends happen under it); closed drains
	// the loop on Close.
	syncCh   chan *walSource
	syncDone chan struct{}
	closed   bool
}

// walRecovered is one source's scan result, consumed by the intake to
// seed its counters, dedup set and replay reader.
type walRecovered struct {
	name       string
	parts      []walReplayPart
	seen       map[string]int64
	bytes      int64
	lines      int64
	deliveries int64
	complete   bool
	lastSeq    int64
	marks      []walMark

	quarantined []string
	truncated   int64
	lastGoodID  string
}

// walSegmentName renders a segment filename; the source name is
// path-escaped so arbitrary source IDs stay single path elements.
func walSegmentName(source string, seq int64) string {
	return fmt.Sprintf("%s-%0*d%s", url.PathEscape(source), walSeqDigits, seq, walSegmentGlob)
}

// walSegmentSeq parses name as a segment of source, returning its
// sequence number. Strict: prefix, exactly walSeqDigits digits, and
// the .wal suffix.
func walSegmentSeq(source, name string) (int64, bool) {
	prefix := url.PathEscape(source) + "-"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, walSegmentGlob) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), walSegmentGlob)
	if len(digits) != walSeqDigits {
		return 0, false
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// openWAL scans (and, with cfg.Resume, recovers) the journal
// directory, then opens a fresh segment per incomplete source for new
// appends. ctx carries the fault-injection set for serve.wal.replay.
func openWAL(ctx context.Context, cfg WALConfig, sources []string, logf func(string, ...any)) (*walManager, map[string]*walRecovered, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("serve: wal directory is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: wal dir: %w", err)
	}
	m := &walManager{cfg: cfg, logf: logf, byName: make(map[string]*walSource, len(sources))}
	if err := m.checkDirKnown(sources); err != nil {
		return nil, nil, err
	}
	recovered := make(map[string]*walRecovered, len(sources))
	for _, name := range sources {
		rec, err := scanWALSource(ctx, cfg.Dir, name, logf)
		if err != nil {
			return nil, nil, err
		}
		if !cfg.Resume && (rec.bytes > 0 || rec.lastSeq > 0 || rec.complete) {
			return nil, nil, fmt.Errorf("serve: wal dir %s already holds a journal for source %q; pass -resume to replay it or point -wal at a clean directory", cfg.Dir, name)
		}
		recovered[name] = rec
		src := &walSource{
			name:       name,
			seq:        rec.lastSeq,
			bytes:      rec.bytes,
			lines:      rec.lines,
			deliveries: rec.deliveries,
			complete:   rec.complete,
			marks:      make([]walMark, 0, 64),
		}
		src.marks = append(src.marks, rec.marks...)
		m.order = append(m.order, src)
		m.byName[name] = src
		m.replayedBytes += rec.bytes
		m.quarantinedSegs += int64(len(rec.quarantined))
		m.truncatedBytes += rec.truncated
	}
	// Count everything already on disk (recovered segments, quarantined
	// files) against the budget before opening new segments.
	if err := m.accountDisk(); err != nil {
		return nil, nil, err
	}
	// Every restart cuts over to a fresh segment, so replay readers
	// never share a file with the live appender.
	for _, src := range m.order {
		if src.complete {
			continue
		}
		if err := m.openSegmentLocked(src); err != nil {
			return nil, nil, err
		}
	}
	// syncQueued guarantees at most one queued entry per source, so a
	// len(order)-slot channel makes requestSyncLocked non-blocking.
	m.syncCh = make(chan *walSource, len(m.order)+1)
	m.syncDone = make(chan struct{})
	//lint:allow rawgo journal fsync cadence, not an analysis fan-out; one goroutine that Close drains
	go m.syncLoop(ctx)
	return m, recovered, nil
}

// checkDirKnown refuses journal directories holding segments for
// undeclared sources — replaying only part of a journal would fold a
// different concatenation than the one that was acknowledged.
func (m *walManager) checkDirKnown(sources []string) error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("serve: wal dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, walSegmentGlob) {
			continue
		}
		known := false
		for _, s := range sources {
			if _, ok := walSegmentSeq(s, name); ok {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("serve: wal dir %s holds segment %s for an undeclared source; declare it or clean the directory", m.cfg.Dir, name)
		}
	}
	return nil
}

// accountDisk sums the journal directory's on-disk footprint.
func (m *walManager) accountDisk() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("serve: wal dir: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		m.diskBytes += info.Size()
		if strings.HasSuffix(ent.Name(), walSegmentGlob) {
			m.segments++
		}
	}
	return nil
}

// openSegmentLocked cuts the source over to its next segment file:
// exclusive create, header line, directory fsync so the rotation
// itself survives power loss.
func (m *walManager) openSegmentLocked(src *walSource) error {
	seq := src.seq + 1
	path := filepath.Join(m.cfg.Dir, walSegmentName(src.name, seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal segment %s: %w", path, err)
	}
	header := fmt.Sprintf("%s segment %s %d\n", walMagic, url.PathEscape(src.name), seq)
	if _, err := f.WriteString(header); err != nil {
		f.Close()
		return fmt.Errorf("serve: wal segment %s header: %w", path, err)
	}
	if err := syncDir(m.cfg.Dir); err != nil {
		f.Close()
		return fmt.Errorf("serve: wal dir sync: %w", err)
	}
	src.f = f
	src.seq = seq
	src.segBytes = int64(len(header))
	m.diskBytes += int64(len(header))
	m.segments++
	return nil
}

// syncDir fsyncs a directory so a just-created file's entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// shedLocked latches the journal into shed mode.
func (m *walManager) shedLocked(reason string) {
	if !m.shed {
		m.shed = true
		m.shedReason = reason
		m.logf("serve: wal shedding intake: %s", reason)
	}
}

// Append journals one delivery before the intake buffers it. Called
// under the intake mutex; any failure sheds intake and leaves the
// delivery unacknowledged (nothing was buffered, the client retries).
func (m *walManager) Append(ctx context.Context, name, id string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shed {
		return fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	src := m.byName[name]
	if src == nil || src.f == nil {
		return fmt.Errorf("%w: source %q has no open segment", ErrWALShed, name)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s d id=%s len=%d sha256=%s\n", walMagic, url.QueryEscape(id), len(payload), hex.EncodeToString(sum[:]))
	if err := m.writeRecordLocked(ctx, src, header, payload); err != nil {
		return err
	}
	src.bytes += int64(len(payload))
	src.lines += int64(bytes.Count(payload, walNewline))
	src.deliveries++
	src.marks = append(src.marks, walMark{lines: src.lines, bytes: src.bytes})
	return nil
}

// Complete journals a source-completion record; the intake marks the
// source complete only after this returns.
func (m *walManager) Complete(ctx context.Context, name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shed {
		return fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	src := m.byName[name]
	if src == nil || src.f == nil {
		return fmt.Errorf("%w: source %q has no open segment", ErrWALShed, name)
	}
	sum := sha256.Sum256(nil)
	header := fmt.Sprintf("%s c id= len=0 sha256=%s\n", walMagic, hex.EncodeToString(sum[:]))
	if err := m.writeRecordLocked(ctx, src, header, nil); err != nil {
		return err
	}
	// Completion is the source's final record: with a sync cadence
	// armed, force it durable before closing the segment. Without one
	// the close is enough — the kernel writes the pages back on its
	// own schedule, and only a power loss can beat it there.
	if m.cfg.SyncBytes > 0 {
		if err := m.syncLocked(ctx, src); err != nil {
			return err
		}
	}
	src.complete = true
	err := src.f.Close()
	src.f = nil
	if err != nil {
		m.shedLocked(fmt.Sprintf("closing %s segment: %v", name, err))
		return fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	return nil
}

// writeRecordLocked appends one framed record to the source's open
// segment, rotating first when it would overflow, and applies the
// sync cadence. Every failure (including injected serve.wal.* faults)
// sheds intake.
func (m *walManager) writeRecordLocked(ctx context.Context, src *walSource, header string, payload []byte) error {
	recLen := int64(len(header) + len(payload))
	if m.cfg.DiskBudgetBytes > 0 && m.diskBytes+recLen > m.cfg.DiskBudgetBytes {
		m.shedLocked(fmt.Sprintf("disk budget: %d of %d bytes used, next record needs %d", m.diskBytes, m.cfg.DiskBudgetBytes, recLen))
		return fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	if src.segBytes > 0 && src.segBytes+recLen > m.cfg.SegmentBytes {
		if err := m.rotateLocked(ctx, src); err != nil {
			return err
		}
	}
	if err := fpWALAppend.Check(ctx); err != nil {
		m.shedLocked(fmt.Sprintf("append fault on %s: %v", src.name, err))
		return fmt.Errorf("serve: wal append %s: %w; %w", src.name, err, ErrWALShed)
	}
	if _, err := src.f.WriteString(header); err != nil {
		m.shedLocked(fmt.Sprintf("writing %s segment: %v", src.name, err))
		return fmt.Errorf("serve: wal append %s: %w; %w", src.name, err, ErrWALShed)
	}
	if len(payload) > 0 {
		if _, err := src.f.Write(payload); err != nil {
			m.shedLocked(fmt.Sprintf("writing %s segment: %v", src.name, err))
			return fmt.Errorf("serve: wal append %s: %w; %w", src.name, err, ErrWALShed)
		}
	}
	src.segBytes += recLen
	m.diskBytes += recLen
	src.unsynced += recLen
	if m.cfg.SyncBytes > 0 && src.unsynced >= m.cfg.SyncBytes {
		m.requestSyncLocked(src)
	}
	return nil
}

// requestSyncLocked queues the source for a background fsync. The
// append path never waits on writeback: acknowledgment durability is
// page-cache level (a process crash loses nothing), and the power-loss
// window stays bounded near SyncBytes because the syncer drains the
// queue as fast as the disk allows. A failed background sync latches
// shed exactly like an inline one — it just surfaces on the next
// append instead of the current one.
func (m *walManager) requestSyncLocked(src *walSource) {
	if src.syncQueued || m.closed {
		return
	}
	src.syncQueued = true
	m.syncCh <- src
}

// syncLoop owns the off-path f.Sync calls. It snapshots the file
// handle and pending byte count under the mutex, syncs without it (so
// appends and folds continue during writeback), then settles the
// accounting. A segment rotated or closed mid-sync is not an error:
// whoever closed it already synced it inline.
func (m *walManager) syncLoop(ctx context.Context) {
	defer close(m.syncDone)
	for src := range m.syncCh {
		m.mu.Lock()
		src.syncQueued = false
		f := src.f
		pending := src.unsynced
		shed := m.shed
		m.mu.Unlock()
		if f == nil || pending == 0 || shed {
			continue
		}
		err := fpWALSync.Check(ctx)
		if err == nil {
			err = f.Sync()
		}
		m.mu.Lock()
		if src.f == f {
			switch {
			case err != nil && faultpoint.IsFault(err):
				m.shedLocked(fmt.Sprintf("sync fault on %s: %v", src.name, err))
			case err != nil:
				m.shedLocked(fmt.Sprintf("syncing %s segment: %v", src.name, err))
			default:
				if src.unsynced -= pending; src.unsynced < 0 {
					src.unsynced = 0
				}
			}
		}
		m.mu.Unlock()
	}
}

// syncLocked fsyncs the source's open segment.
func (m *walManager) syncLocked(ctx context.Context, src *walSource) error {
	if src.unsynced == 0 {
		return nil
	}
	if err := fpWALSync.Check(ctx); err != nil {
		m.shedLocked(fmt.Sprintf("sync fault on %s: %v", src.name, err))
		return fmt.Errorf("serve: wal sync %s: %w; %w", src.name, err, ErrWALShed)
	}
	if err := src.f.Sync(); err != nil {
		m.shedLocked(fmt.Sprintf("syncing %s segment: %v", src.name, err))
		return fmt.Errorf("serve: wal sync %s: %w; %w", src.name, err, ErrWALShed)
	}
	src.unsynced = 0
	return nil
}

// rotateLocked closes the source's current segment (synced first when
// a cadence is armed) and cuts over to the next one.
func (m *walManager) rotateLocked(ctx context.Context, src *walSource) error {
	if err := fpWALRotate.Check(ctx); err != nil {
		m.shedLocked(fmt.Sprintf("rotate fault on %s: %v", src.name, err))
		return fmt.Errorf("serve: wal rotate %s: %w; %w", src.name, err, ErrWALShed)
	}
	if m.cfg.SyncBytes > 0 {
		if err := m.syncLocked(ctx, src); err != nil {
			return err
		}
	}
	if err := src.f.Close(); err != nil {
		m.shedLocked(fmt.Sprintf("closing %s segment: %v", src.name, err))
		return fmt.Errorf("serve: wal rotate %s: %w; %w", src.name, err, ErrWALShed)
	}
	src.f = nil
	if err := m.openSegmentLocked(src); err != nil {
		m.shedLocked(fmt.Sprintf("opening next %s segment: %v", src.name, err))
		return fmt.Errorf("serve: wal rotate %s: %w; %w", src.name, err, ErrWALShed)
	}
	return nil
}

// NoteDuplicate counts one deduplicated redelivery.
func (m *walManager) NoteDuplicate() {
	m.mu.Lock()
	m.duplicates++
	m.mu.Unlock()
}

// Close drains the background syncer, then closes every open segment
// (synced first when a cadence is armed). Called once Run's fold loop
// has returned; safe to call twice.
func (m *walManager) Close() error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.syncCh)
	}
	m.mu.Unlock()
	<-m.syncDone
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, src := range m.order {
		if src.f == nil {
			continue
		}
		if m.cfg.SyncBytes > 0 && src.unsynced > 0 {
			if err := src.f.Sync(); err != nil && first == nil {
				first = err
			}
			src.unsynced = 0
		}
		if err := src.f.Close(); err != nil && first == nil {
			first = err
		}
		src.f = nil
	}
	return first
}

// Stats assembles a copy-on-publish view. foldedLines and
// checkpointLines are the engine's cumulative folded and
// last-checkpointed line counts over the concatenation; both map to
// journal byte offsets by walking sources in declared order and
// rounding down to a delivery boundary, so the lag numbers are
// conservative overestimates.
func (m *walManager) Stats(foldedLines, checkpointLines int64) telemetry.WALStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var journaled int64
	var deliveries int64
	for _, src := range m.order {
		journaled += src.bytes
		deliveries += src.deliveries
	}
	return telemetry.WALStats{
		Dir:                 m.cfg.Dir,
		JournaledBytes:      journaled,
		DiskBytes:           m.diskBytes,
		DiskBudgetBytes:     m.cfg.DiskBudgetBytes,
		Segments:            m.segments,
		Deliveries:          deliveries,
		Duplicates:          m.duplicates,
		ReplayedBytes:       m.replayedBytes,
		QuarantinedSegments: m.quarantinedSegs,
		TornTruncatedBytes:  m.truncatedBytes,
		LagBytes:            journaled - m.coveredBytesLocked(foldedLines),
		CheckpointLagBytes:  journaled - m.coveredBytesLocked(checkpointLines),
		Shedding:            m.shed,
		ShedReason:          m.shedReason,
	}
}

// coveredBytesLocked maps a cumulative line count over the declared
// concatenation to journaled payload bytes, rounding down to the last
// delivery boundary inside the partially folded source.
func (m *walManager) coveredBytesLocked(lines int64) int64 {
	var covered int64
	remaining := lines
	for _, src := range m.order {
		if remaining <= 0 {
			break
		}
		if src.lines <= remaining {
			covered += src.bytes
			remaining -= src.lines
			continue
		}
		marks := src.marks
		idx := sort.Search(len(marks), func(i int) bool { return marks[i].lines > remaining })
		if idx > 0 {
			covered += marks[idx-1].bytes
		}
		break
	}
	return covered
}

// walReplayPart is one checksummed payload range inside a scanned
// segment file.
type walReplayPart struct {
	path string
	off  int64
	n    int64
}

// walReplay serves the scanned payload ranges back as one io.Reader —
// the journal prefix the intake splices ahead of a source's live
// buffer. Single reader (the engine fold loop, under the intake
// mutex).
type walReplay struct {
	parts []walReplayPart
	idx   int
	pos   int64
	f     *os.File
	path  string
}

func newWALReplay(parts []walReplayPart) *walReplay {
	return &walReplay{parts: parts}
}

func (r *walReplay) Read(p []byte) (int, error) {
	for {
		if r.idx >= len(r.parts) {
			return 0, io.EOF
		}
		pt := r.parts[r.idx]
		if r.pos == pt.n {
			r.idx++
			r.pos = 0
			continue
		}
		if r.f == nil || r.path != pt.path {
			if r.f != nil {
				r.f.Close()
				r.f = nil
			}
			f, err := os.Open(pt.path)
			if err != nil {
				return 0, fmt.Errorf("serve: wal replay: %w", err)
			}
			r.f, r.path = f, pt.path
		}
		want := pt.n - r.pos
		if int64(len(p)) < want {
			want = int64(len(p))
		}
		n, err := r.f.ReadAt(p[:want], pt.off+r.pos)
		r.pos += int64(n)
		if n > 0 {
			return n, nil
		}
		if err != nil {
			return 0, fmt.Errorf("serve: wal replay %s: %w", pt.path, err)
		}
	}
}

func (r *walReplay) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// scanWALSource reads a source's segment chain back, verifying every
// record checksum, and returns the replayable prefix. Recovery
// actions happen here: a record torn at the tail of the final segment
// truncates the file back to the last valid checksum; any other
// invalid record quarantines its segment and all later ones.
func scanWALSource(ctx context.Context, dir, name string, logf func(string, ...any)) (*walRecovered, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: wal dir: %w", err)
	}
	type seg struct {
		path string
		seq  int64
	}
	var segs []seg
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := walSegmentSeq(name, ent.Name()); ok {
			segs = append(segs, seg{path: filepath.Join(dir, ent.Name()), seq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	rec := &walRecovered{name: name, seen: make(map[string]int64)}
	for i, sg := range segs {
		if err := fpWALReplay.Check(ctx); err != nil {
			return nil, fmt.Errorf("serve: wal replay %s: %w", sg.path, err)
		}
		if sg.seq <= rec.lastSeq && rec.lastSeq != 0 {
			return nil, fmt.Errorf("serve: wal segments for %q repeat sequence %d", name, sg.seq)
		}
		res, err := scanWALSegment(sg.path, name, sg.seq)
		if err != nil {
			return nil, err
		}
		last := i == len(segs)-1
		switch {
		case res.bad == nil:
			rec.fold(res)
			rec.lastSeq = sg.seq
		case last && res.torn:
			// Torn tail: the crash interrupted the final record's write.
			// Truncate back to the last valid checksum and keep the good
			// prefix — the torn delivery was never acknowledged.
			if err := os.Truncate(sg.path, res.goodOff); err != nil {
				return nil, fmt.Errorf("serve: wal truncate %s: %w", sg.path, err)
			}
			rec.truncated += res.size - res.goodOff
			rec.fold(res)
			rec.lastSeq = sg.seq
			logf("serve: wal %s: torn tail, truncated %d bytes back to last valid checksum", sg.path, res.size-res.goodOff)
		default:
			// Checksum corruption (or a mid-chain tear): quarantine this
			// segment and every later one; nothing in them is folded.
			for _, q := range segs[i:] {
				if err := os.Rename(q.path, q.path+walQuarantined); err != nil {
					return nil, fmt.Errorf("serve: wal quarantine %s: %w", q.path, err)
				}
				rec.quarantined = append(rec.quarantined, q.path+walQuarantined)
			}
			rec.lastSeq = segs[len(segs)-1].seq
			logf("serve: wal %s: %v; quarantined %d segment(s), re-request deliveries after id %q", sg.path, res.bad, len(segs)-i, rec.lastGoodID)
			return rec, nil
		}
	}
	return rec, nil
}

// fold merges one cleanly scanned segment into the recovery result.
func (r *walRecovered) fold(res *walSegmentScan) {
	r.parts = append(r.parts, res.parts...)
	for id, n := range res.seen {
		r.seen[id] = n
	}
	for _, mk := range res.marks {
		r.marks = append(r.marks, walMark{lines: r.lines + mk.lines, bytes: r.bytes + mk.bytes})
	}
	r.bytes += res.bytes
	r.lines += res.lines
	r.deliveries += res.deliveries
	if res.complete {
		r.complete = true
	}
	if res.lastID != "" {
		r.lastGoodID = res.lastID
	}
}

// walSegmentScan is one segment's parse result. bad is nil for a
// clean segment; torn marks an incomplete record ending exactly at
// EOF (truncatable), goodOff the offset of the last valid record end.
type walSegmentScan struct {
	parts      []walReplayPart
	seen       map[string]int64
	marks      []walMark
	bytes      int64
	lines      int64
	deliveries int64
	complete   bool
	lastID     string

	size    int64
	goodOff int64
	bad     error
	torn    bool
}

// scanWALSegment parses one segment file. I/O errors and wrong-source
// headers are hard errors; framing/checksum violations come back in
// the scan result for the caller's recovery policy.
func scanWALSegment(path, source string, seq int64) (*walSegmentScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: wal segment %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("serve: wal segment %s: %w", path, err)
	}
	res := &walSegmentScan{seen: make(map[string]int64), size: info.Size()}
	if res.size == 0 {
		// A zero-length segment: a prior recovery truncated a header
		// torn at offset 0. Valid and empty.
		return res, nil
	}
	br := bufio.NewReaderSize(f, 64<<10)
	off := int64(0)
	header, err := readWALLine(br)
	if err != nil {
		res.bad = fmt.Errorf("segment header: %w", err)
		res.torn = errors.Is(err, io.ErrUnexpectedEOF)
		return res, nil
	}
	wantHeader := fmt.Sprintf("%s segment %s %d", walMagic, url.PathEscape(source), seq)
	if strings.TrimSuffix(header, "\n") != wantHeader {
		return nil, fmt.Errorf("serve: wal segment %s: header %q does not match source %q seq %d", path, strings.TrimSpace(header), source, seq)
	}
	off += int64(len(header))
	res.goodOff = off
	for {
		line, err := readWALLine(br)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			res.bad = fmt.Errorf("record header at offset %d: %w", off, err)
			res.torn = errors.Is(err, io.ErrUnexpectedEOF)
			return res, nil
		}
		kind, id, n, sum, perr := parseWALRecordHeader(strings.TrimSuffix(line, "\n"))
		if perr != nil {
			res.bad = fmt.Errorf("record header at offset %d: %w", off, perr)
			return res, nil
		}
		payloadOff := off + int64(len(line))
		// The header carries no checksum, so n is untrusted: a length
		// past the end of the file is the short read it would become,
		// reported before it sizes an allocation.
		if n > res.size-payloadOff {
			res.bad = fmt.Errorf("record payload at offset %d: %w", payloadOff, io.ErrUnexpectedEOF)
			res.torn = true
			return res, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			res.bad = fmt.Errorf("record payload at offset %d: %w", payloadOff, err)
			res.torn = err == io.ErrUnexpectedEOF || err == io.EOF
			return res, nil
		}
		got := sha256.Sum256(payload)
		if hex.EncodeToString(got[:]) != sum {
			res.bad = fmt.Errorf("checksum mismatch at offset %d", off)
			return res, nil
		}
		off = payloadOff + n
		res.goodOff = off
		switch kind {
		case "d":
			res.parts = append(res.parts, walReplayPart{path: path, off: payloadOff, n: n})
			res.bytes += n
			for _, b := range payload {
				if b == '\n' {
					res.lines++
				}
			}
			res.deliveries++
			res.marks = append(res.marks, walMark{lines: res.lines, bytes: res.bytes})
			if id != "" {
				res.seen[id] = n
				res.lastID = id
			}
		case "c":
			res.complete = true
		}
	}
}

// readWALLine reads one newline-terminated header line, bounding its
// length; a line cut off by EOF comes back as io.ErrUnexpectedEOF.
func readWALLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF {
		if line == "" {
			return "", io.EOF
		}
		return "", io.ErrUnexpectedEOF
	}
	if err != nil {
		return "", err
	}
	if len(line) > walMaxHeaderLen {
		return "", fmt.Errorf("header line exceeds %d bytes", walMaxHeaderLen)
	}
	return line, nil
}

// parseWALRecordHeader parses "fullweb-wal1 <kind> id=<esc> len=<n>
// sha256=<hex>".
func parseWALRecordHeader(line string) (kind, id string, n int64, sum string, err error) {
	fields := strings.Split(line, " ")
	if len(fields) != 5 || fields[0] != walMagic {
		return "", "", 0, "", fmt.Errorf("malformed record header %q", line)
	}
	kind = fields[1]
	if kind != "d" && kind != "c" {
		return "", "", 0, "", fmt.Errorf("unknown record kind %q", kind)
	}
	rawID, ok := strings.CutPrefix(fields[2], "id=")
	if !ok {
		return "", "", 0, "", fmt.Errorf("malformed id field %q", fields[2])
	}
	id, err = url.QueryUnescape(rawID)
	if err != nil {
		return "", "", 0, "", fmt.Errorf("malformed id field %q: %v", fields[2], err)
	}
	rawLen, ok := strings.CutPrefix(fields[3], "len=")
	if !ok {
		return "", "", 0, "", fmt.Errorf("malformed len field %q", fields[3])
	}
	n, err = strconv.ParseInt(rawLen, 10, 64)
	if err != nil || n < 0 {
		return "", "", 0, "", fmt.Errorf("malformed len field %q", fields[3])
	}
	sum, ok = strings.CutPrefix(fields[4], "sha256=")
	if !ok || len(sum) != hex.EncodedLen(sha256.Size) {
		return "", "", 0, "", fmt.Errorf("malformed sha256 field %q", fields[4])
	}
	// Complete writes "c id= len=0": a completion with an id or a
	// payload is a corrupt data record, which must not vanish as one.
	if kind == "c" && (id != "" || n != 0) {
		return "", "", 0, "", fmt.Errorf("completion record with id %q and len %d", id, n)
	}
	return kind, id, n, sum, nil
}
