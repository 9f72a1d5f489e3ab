// The durable intake journal (DESIGN.md §16): every accepted delivery
// is appended to a per-source, sha256-checksummed, rotated segment
// file *before* it is acknowledged, stamped with the client's delivery
// ID. The journal is the intake's buffer: a source's ledger names each
// delivery by the segment range its payload occupies, and the engine
// reads it back from there. Restarting with the same journal scans it
// into the ledgers again, so a crashed run resumes byte-identical to an
// uninterrupted one, and redelivered POSTs (at-least-once transport)
// are deduplicated by ID into an exactly-once fold.
//
// Segment layout: one header line naming the source, the sequence
// number and the source payload offset the segment starts at
//
//	fullweb-wal2 segment <escaped-source> <seq> off=<n>
//
// followed by framed records, each a header line plus the raw payload
// bytes:
//
//	fullweb-wal2 d id=<escaped-id> len=<n> sha256=<hex>
//	<n payload bytes>
//	fullweb-wal2 c id= len=0 sha256=<hex>
//
// A record's sha256 covers its header up to the sha256= field, then its
// payload, so a flipped kind, id or length fails it like a flipped
// payload byte. A fullweb-wal1 journal is refused: drain it with the
// build that wrote it.
//
// Recovery policy, in order of preference: a record torn at the tail
// of the final segment is truncated back to the last valid checksum
// (the delivery was never acknowledged — the client retries it); a
// checksum-corrupt record anywhere else, or a segment whose off= is
// not where the chain before it ends (a middle segment cut short),
// quarantines that whole segment and every later one (renamed
// *.quarantined, never folded) and the operator re-requests from the
// last good delivery ID; sync failures
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
	walMagic        = "fullweb-wal2"
	walQuarantined  = ".quarantined"
	walSegmentGlob  = ".wal"
	walSeqDigits    = 8
	walMaxHeaderLen = 4096
)

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

// walSource is one source's open segment. Guarded by the manager
// mutex.
type walSource struct {
	name       string
	f          *os.File
	path       string // the open segment, named by the extents written to it
	seq        int64
	segBytes   int64 // bytes written to the open segment
	unsynced   int64 // payload bytes since the last fsync
	syncQueued bool  // one outstanding background-sync request at most
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
// directory into one ledger per source, in declared order, then opens
// a fresh segment per incomplete source for new appends. ctx carries
// the fault-injection set for serve.wal.replay.
func openWAL(ctx context.Context, cfg WALConfig, sources []string, logf func(string, ...any)) (*walManager, []*ledger, error) {
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
	leds := make([]*ledger, 0, len(sources))
	for _, name := range sources {
		src := &walSource{name: name}
		led, err := m.scanSource(ctx, src)
		if err != nil {
			return nil, nil, err
		}
		if !cfg.Resume && (led.bytes > 0 || src.seq > 0 || led.complete) {
			return nil, nil, fmt.Errorf("serve: wal dir %s already holds a journal for source %q; pass -resume to replay it or point -wal at a clean directory", cfg.Dir, name)
		}
		led.recovered = led.bytes
		m.replayedBytes += led.bytes
		m.order = append(m.order, src)
		m.byName[name] = src
		leds = append(leds, led)
	}
	// Count everything already on disk (recovered segments, quarantined
	// files) against the budget before opening new segments.
	if err := m.accountDisk(); err != nil {
		return nil, nil, err
	}
	// Every restart cuts over to a fresh segment, so no recovered
	// segment is written again.
	for i, src := range m.order {
		if leds[i].complete {
			continue
		}
		if err := m.openSegmentLocked(src, leds[i].bytes); err != nil {
			return nil, nil, err
		}
	}
	// syncQueued guarantees at most one queued entry per source, so a
	// len(order)-slot channel makes requestSyncLocked non-blocking.
	m.syncCh = make(chan *walSource, len(m.order)+1)
	m.syncDone = make(chan struct{})
	//lint:allow rawgo journal fsync cadence, not an analysis fan-out; one goroutine that Close drains
	go m.syncLoop(ctx)
	return m, leds, nil
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

// openSegmentLocked cuts the source over to its next segment file,
// which starts at source payload offset off: exclusive create, header
// line, directory fsync so the rotation itself survives power loss.
func (m *walManager) openSegmentLocked(src *walSource, off int64) error {
	seq := src.seq + 1
	path := filepath.Join(m.cfg.Dir, walSegmentName(src.name, seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal segment %s: %w", path, err)
	}
	header := fmt.Sprintf("%s segment %s %d off=%d\n", walMagic, url.PathEscape(src.name), seq, off)
	if _, err := f.WriteString(header); err != nil {
		f.Close()
		return fmt.Errorf("serve: wal segment %s header: %w", path, err)
	}
	if err := syncDir(m.cfg.Dir); err != nil {
		f.Close()
		return fmt.Errorf("serve: wal dir sync: %w", err)
	}
	src.f, src.path = f, path
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

// Append journals one delivery, which starts at source payload offset
// at, and returns the extent its payload occupies. Called under the
// intake mutex; any failure sheds intake and leaves the delivery
// unacknowledged (nothing was accepted, the client retries).
func (m *walManager) Append(ctx context.Context, name, id string, at int64, payload []byte) (extent, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shed {
		return extent{}, fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	src := m.byName[name]
	if src == nil || src.f == nil {
		return extent{}, fmt.Errorf("%w: source %q has no open segment", ErrWALShed, name)
	}
	head := fmt.Sprintf("%s d id=%s len=%d ", walMagic, url.QueryEscape(id), len(payload))
	off, err := m.writeRecordLocked(ctx, src, at, head, payload)
	if err != nil {
		return extent{}, err
	}
	return extent{path: src.path, off: off, n: int64(len(payload))}, nil
}

// Complete journals a source-completion record at source payload
// offset at; the intake marks the source complete only after this
// returns.
func (m *walManager) Complete(ctx context.Context, name string, at int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shed {
		return fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	src := m.byName[name]
	if src == nil || src.f == nil {
		return fmt.Errorf("%w: source %q has no open segment", ErrWALShed, name)
	}
	if _, err := m.writeRecordLocked(ctx, src, at, walMagic+" c id= len=0 ", nil); err != nil {
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
	err := src.f.Close()
	src.f = nil
	if err != nil {
		m.shedLocked(fmt.Sprintf("closing %s segment: %v", name, err))
		return fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	return nil
}

// walRecordSum is a record's checksum: sha256 over its header up to
// the sha256= field, then its payload.
func walRecordSum(head string, payload []byte) string {
	h := sha256.New()
	io.WriteString(h, head)
	h.Write(payload)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// writeRecordLocked frames head and payload as one record and appends
// it to the source's open segment, rotating first (to a segment that
// starts at source payload offset at) when it would overflow, and
// applies the sync cadence. It returns the payload's offset in the
// segment. Every failure (including injected serve.wal.* faults) sheds
// intake.
func (m *walManager) writeRecordLocked(ctx context.Context, src *walSource, at int64, head string, payload []byte) (int64, error) {
	header := head + "sha256=" + walRecordSum(head, payload) + "\n"
	recLen := int64(len(header) + len(payload))
	if m.cfg.DiskBudgetBytes > 0 && m.diskBytes+recLen > m.cfg.DiskBudgetBytes {
		m.shedLocked(fmt.Sprintf("disk budget: %d of %d bytes used, next record needs %d", m.diskBytes, m.cfg.DiskBudgetBytes, recLen))
		return 0, fmt.Errorf("%w (%s)", ErrWALShed, m.shedReason)
	}
	if src.segBytes > 0 && src.segBytes+recLen > m.cfg.SegmentBytes {
		if err := m.rotateLocked(ctx, src, at); err != nil {
			return 0, err
		}
	}
	if err := fpWALAppend.Check(ctx); err != nil {
		m.shedLocked(fmt.Sprintf("append fault on %s: %v", src.name, err))
		return 0, fmt.Errorf("serve: wal append %s: %w; %w", src.name, err, ErrWALShed)
	}
	if _, err := src.f.WriteString(header); err != nil {
		m.shedLocked(fmt.Sprintf("writing %s segment: %v", src.name, err))
		return 0, fmt.Errorf("serve: wal append %s: %w; %w", src.name, err, ErrWALShed)
	}
	if len(payload) > 0 {
		if _, err := src.f.Write(payload); err != nil {
			m.shedLocked(fmt.Sprintf("writing %s segment: %v", src.name, err))
			return 0, fmt.Errorf("serve: wal append %s: %w; %w", src.name, err, ErrWALShed)
		}
	}
	payloadOff := src.segBytes + int64(len(header))
	src.segBytes += recLen
	m.diskBytes += recLen
	src.unsynced += recLen
	if m.cfg.SyncBytes > 0 && src.unsynced >= m.cfg.SyncBytes {
		m.requestSyncLocked(src)
	}
	return payloadOff, nil
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
// a cadence is armed) and cuts over to the next one, which starts at
// source payload offset at.
func (m *walManager) rotateLocked(ctx context.Context, src *walSource, at int64) error {
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
	if err := m.openSegmentLocked(src, at); err != nil {
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

// Stats reports what the journal itself knows; the intake adds the
// journaled totals and lags its ledgers derive (intake.walStats).
func (m *walManager) Stats() telemetry.WALStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return telemetry.WALStats{
		Dir:                 m.cfg.Dir,
		DiskBytes:           m.diskBytes,
		DiskBudgetBytes:     m.cfg.DiskBudgetBytes,
		Segments:            m.segments,
		Duplicates:          m.duplicates,
		ReplayedBytes:       m.replayedBytes,
		QuarantinedSegments: m.quarantinedSegs,
		TornTruncatedBytes:  m.truncatedBytes,
		Shedding:            m.shed,
		ShedReason:          m.shedReason,
	}
}

// scanSource reads src's segment chain back into a fresh ledger,
// verifying every record checksum and that each segment starts where
// the chain before it ends, and leaves src.seq at the last sequence
// number on disk. Recovery actions happen here: a record torn at the
// tail of the final segment truncates the file back to the last valid
// checksum; any other invalid record, or a break in the chain,
// quarantines its segment and all later ones.
func (m *walManager) scanSource(ctx context.Context, src *walSource) (*ledger, error) {
	dir, name := m.cfg.Dir, src.name
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
	led := newLedger()
	lastGoodID := ""
	for i, sg := range segs {
		if err := fpWALReplay.Check(ctx); err != nil {
			return nil, fmt.Errorf("serve: wal replay %s: %w", sg.path, err)
		}
		if sg.seq <= src.seq && src.seq != 0 {
			return nil, fmt.Errorf("serve: wal segments for %q repeat sequence %d", name, sg.seq)
		}
		res, err := scanWALSegment(sg.path, name, sg.seq)
		if err != nil {
			return nil, err
		}
		if res.off >= 0 && res.off != led.bytes {
			res.bad = fmt.Errorf("segment starts at source offset %d, but the chain before it ends at %d", res.off, led.bytes)
			res.torn = false
		}
		if res.bad != nil && !(res.torn && i == len(segs)-1) {
			// Checksum corruption, a mid-chain tear or a chain gap:
			// quarantine this segment and every later one; nothing in
			// them is folded.
			for _, q := range segs[i:] {
				if err := os.Rename(q.path, q.path+walQuarantined); err != nil {
					return nil, fmt.Errorf("serve: wal quarantine %s: %w", q.path, err)
				}
			}
			m.quarantinedSegs += int64(len(segs) - i)
			src.seq = segs[len(segs)-1].seq
			m.logf("serve: wal %s: %v; quarantined %d segment(s), re-request deliveries after id %q", sg.path, res.bad, len(segs)-i, lastGoodID)
			return led, nil
		}
		if res.bad != nil {
			// Torn tail: the crash interrupted the final record's write.
			// Truncate back to the last valid checksum and keep the good
			// prefix — the torn delivery was never acknowledged.
			if err := os.Truncate(sg.path, res.goodOff); err != nil {
				return nil, fmt.Errorf("serve: wal truncate %s: %w", sg.path, err)
			}
			m.truncatedBytes += res.size - res.goodOff
			m.logf("serve: wal %s: torn tail, truncated %d bytes back to last valid checksum", sg.path, res.size-res.goodOff)
		}
		for _, r := range res.recs {
			if r.complete {
				led.complete = true
				continue
			}
			led.add(r.ext, r.id, r.lines)
			if r.id != "" {
				lastGoodID = r.id
			}
		}
		src.seq = sg.seq
	}
	return led, nil
}

// walRecord is one verified record of a scanned segment: a delivery's
// extent, ID and newline count, or a source completion.
type walRecord struct {
	ext      extent
	id       string
	lines    int64
	complete bool
}

// walSegmentScan is one segment's parse result. off is the source
// payload offset its header declares (-1 without a header); bad is nil
// for a clean segment; torn marks an incomplete record ending exactly
// at EOF (truncatable), goodOff the offset of the last valid record
// end.
type walSegmentScan struct {
	recs    []walRecord
	off     int64
	size    int64
	goodOff int64
	bad     error
	torn    bool
}

// scanWALSegment parses one segment file. I/O errors, wrong-source
// headers and other journal formats are hard errors; framing/checksum
// violations come back in the scan result for the caller's recovery
// policy.
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
	res := &walSegmentScan{off: -1, size: info.Size()}
	if res.size == 0 {
		// A zero-length segment: a prior recovery truncated a header
		// torn at offset 0. Valid and empty.
		return res, nil
	}
	br := bufio.NewReaderSize(f, 64<<10)
	header, err := readWALLine(br)
	if err != nil {
		res.bad = fmt.Errorf("segment header: %w", err)
		res.torn = errors.Is(err, io.ErrUnexpectedEOF)
		return res, nil
	}
	line := strings.TrimSuffix(header, "\n")
	if magic, _, _ := strings.Cut(line, " "); magic != walMagic && strings.HasPrefix(magic, "fullweb-wal") {
		return nil, fmt.Errorf("serve: wal segment %s: journal format %s, this build reads %s; drain the journal with the build that wrote it", path, magic, walMagic)
	}
	rawOff, ok := strings.CutPrefix(line, fmt.Sprintf("%s segment %s %d off=", walMagic, url.PathEscape(source), seq))
	if res.off, err = strconv.ParseInt(rawOff, 10, 64); !ok || err != nil || res.off < 0 {
		return nil, fmt.Errorf("serve: wal segment %s: header %q does not match source %q seq %d", path, line, source, seq)
	}
	off := int64(len(header))
	res.goodOff = off
	var payload []byte
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
		kind, id, n, head, sum, perr := parseWALRecordHeader(strings.TrimSuffix(line, "\n"))
		if perr != nil {
			res.bad = fmt.Errorf("record header at offset %d: %w", off, perr)
			return res, nil
		}
		payloadOff := off + int64(len(line))
		// n is only checked with the payload, so it is untrusted here: a
		// length past the end of the file is the short read it would
		// become, reported before it sizes an allocation.
		if n > res.size-payloadOff {
			res.bad = fmt.Errorf("record payload at offset %d: %w", payloadOff, io.ErrUnexpectedEOF)
			res.torn = true
			return res, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.bad = fmt.Errorf("record payload at offset %d: %w", payloadOff, err)
			res.torn = err == io.ErrUnexpectedEOF || err == io.EOF
			return res, nil
		}
		if walRecordSum(head, payload) != sum {
			res.bad = fmt.Errorf("checksum mismatch at offset %d", off)
			return res, nil
		}
		off = payloadOff + n
		res.goodOff = off
		if kind == "c" {
			res.recs = append(res.recs, walRecord{complete: true})
			continue
		}
		res.recs = append(res.recs, walRecord{
			ext:   extent{path: path, off: payloadOff, n: n},
			id:    id,
			lines: int64(bytes.Count(payload, newline)),
		})
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

// parseWALRecordHeader parses "fullweb-wal2 <kind> id=<esc> len=<n>
// sha256=<hex>", returning head, the part the checksum covers.
func parseWALRecordHeader(line string) (kind, id string, n int64, head, sum string, err error) {
	fields := strings.Split(line, " ")
	if len(fields) != 5 || fields[0] != walMagic {
		return "", "", 0, "", "", fmt.Errorf("malformed record header %q", line)
	}
	kind = fields[1]
	if kind != "d" && kind != "c" {
		return "", "", 0, "", "", fmt.Errorf("unknown record kind %q", kind)
	}
	rawID, ok := strings.CutPrefix(fields[2], "id=")
	if !ok {
		return "", "", 0, "", "", fmt.Errorf("malformed id field %q", fields[2])
	}
	id, err = url.QueryUnescape(rawID)
	if err != nil {
		return "", "", 0, "", "", fmt.Errorf("malformed id field %q: %v", fields[2], err)
	}
	rawLen, ok := strings.CutPrefix(fields[3], "len=")
	if !ok {
		return "", "", 0, "", "", fmt.Errorf("malformed len field %q", fields[3])
	}
	n, err = strconv.ParseInt(rawLen, 10, 64)
	if err != nil || n < 0 {
		return "", "", 0, "", "", fmt.Errorf("malformed len field %q", fields[3])
	}
	sum, ok = strings.CutPrefix(fields[4], "sha256=")
	if !ok || len(sum) != hex.EncodedLen(sha256.Size) {
		return "", "", 0, "", "", fmt.Errorf("malformed sha256 field %q", fields[4])
	}
	return kind, id, n, line[:len(line)-len(fields[4])], sum, nil
}
