package pagestore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testDamage is a scripted StorageFaultInjector: flip maps damaged pages to
// the bit index to flip, tear lists torn pages. (internal/fault depends on
// this package, so the real hashing injector cannot be imported here.)
type testDamage struct {
	flip map[PageID]int
	tear map[PageID]bool
}

func (d *testDamage) PageCorrupt(p PageID) bool { _, ok := d.flip[p]; return ok }
func (d *testDamage) CorruptBit(p PageID) int   { return d.flip[p] }
func (d *testDamage) TornWrite(p PageID) bool   { return d.tear[p] }

// crashAt kills a relayout at exactly one enumerated crash point.
type crashAt int

func (c crashAt) CrashAt(step int) bool { return int(c) == step }

// newFileStore creates a FileStore for a fresh paginated store in a test
// temp dir.
func newFileStore(t *testing.T, s *Store, cfg FileStoreConfig) *FileStore {
	t.Helper()
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "test.pages"), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestFileStoreRoundTrip: create → every page decodes to exactly the store's
// objects → reopen from the bytes alone → still verifies.
func TestFileStoreRoundTrip(t *testing.T) {
	s := paginatedStore(t, 500, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	if fs.Generation() != 1 || fs.NumPages() != s.NumPages() || fs.LayoutName() != "insertion" {
		t.Fatalf("fresh store gen=%d n=%d layout=%q", fs.Generation(), fs.NumPages(), fs.LayoutName())
	}
	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < s.NumPages(); p++ {
		objs, err := fs.DecodePage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		want := s.PageObjects(PageID(p))
		if len(objs) != len(want) {
			t.Fatalf("page %d decoded %d objects, store has %d", p, len(objs), len(want))
		}
		for i, id := range want {
			if objs[i] != s.Object(id) {
				t.Fatalf("page %d object %d = %+v, want %+v", p, i, objs[i], s.Object(id))
			}
		}
	}
	path := fs.Path()
	fs.Close()
	re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumVerify})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Generation() != 1 || re.NumPages() != s.NumPages() {
		t.Fatalf("reopened gen=%d n=%d", re.Generation(), re.NumPages())
	}
	if err := re.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

func TestCreateFileStoreRequiresPaginated(t *testing.T) {
	s := NewStore(makeObjects(10))
	if _, err := CreateFileStore(filepath.Join(t.TempDir(), "x.pages"), s, FileStoreConfig{}); err == nil {
		t.Fatal("unpaginated store accepted")
	}
}

func TestOpenFileStoreMissing(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "nope.pages"), FileStoreConfig{}); err == nil {
		t.Fatal("missing file opened")
	}
}

// TestChecksumDetection: a flipped bit and a torn write both surface as a
// typed *CorruptPageError under ChecksumVerify, with the counters attributing
// every event.
func TestChecksumDetection(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	dmg := &testDamage{flip: map[PageID]int{3: 12345}, tear: map[PageID]bool{7: true}}
	flipped, torn, err := fs.ApplyCorruption(dmg)
	if err != nil || flipped != 1 || torn != 1 {
		t.Fatalf("ApplyCorruption = (%d, %d, %v), want (1, 1, nil)", flipped, torn, err)
	}
	for _, p := range []PageID{3, 7} {
		if !fs.WasCorrupted(p) {
			t.Errorf("page %d missing from the ground-truth ledger", p)
		}
		_, repaired, err := fs.ReadPage(p, nil)
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) || repaired {
			t.Fatalf("page %d read = (repaired=%v, %v), want *CorruptPageError", p, repaired, err)
		}
		if cpe.Page != p {
			t.Errorf("error names page %d, want %d", cpe.Page, p)
		}
	}
	// A clean page still reads fine.
	if _, _, err := fs.ReadPage(0, nil); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.CorruptDetected != 2 || st.Repaired != 0 {
		t.Errorf("stats = %+v, want 2 detected, 0 repaired", st)
	}
	if err := fs.VerifyAgainst(s); err == nil {
		t.Error("VerifyAgainst passed a damaged file")
	}
}

// TestReplicaRepair: under ChecksumRepair with a replica, a rotten page is
// healed in place on first read — the second read is clean, and the whole
// file verifies afterwards.
func TestReplicaRepair(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	dmg := &testDamage{flip: map[PageID]int{5: 99}, tear: map[PageID]bool{11: true}}
	if _, _, err := fs.ApplyCorruption(dmg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PageID{5, 11} {
		payload, repaired, err := fs.ReadPage(p, nil)
		if err != nil || !repaired {
			t.Fatalf("page %d first read = (repaired=%v, %v), want in-place repair", p, repaired, err)
		}
		if len(payload) != len(s.PageObjects(p))*objBytes {
			t.Fatalf("page %d repaired payload %d bytes", p, len(payload))
		}
		if _, again, err := fs.ReadPage(p, nil); err != nil || again {
			t.Fatalf("page %d second read = (repaired=%v, %v), want clean", p, again, err)
		}
	}
	st := fs.Stats()
	if st.CorruptDetected != 2 || st.Repaired != 2 || st.RepairFailures != 0 {
		t.Errorf("stats = %+v, want 2 detected, 2 repaired", st)
	}
	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

// TestRepairWithoutReplica: ChecksumRepair with no replica detects but
// cannot heal — the typed error surfaces and RepairFailures counts it.
func TestRepairWithoutReplica(t *testing.T) {
	s := paginatedStore(t, 200, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{2: 7}}); err != nil {
		t.Fatal(err)
	}
	_, _, err := fs.ReadPage(2, nil)
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) {
		t.Fatalf("read = %v, want *CorruptPageError", err)
	}
	if st := fs.Stats(); st.RepairFailures != 1 {
		t.Errorf("stats = %+v, want 1 repair failure", st)
	}
}

// TestSilentWithoutChecksums: with checksums off a damaged page is served
// without error — only the ground-truth ledger knows.
func TestSilentWithoutChecksums(t *testing.T) {
	s := paginatedStore(t, 200, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumOff})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{4: 20000}}); err != nil {
		t.Fatal(err)
	}
	if _, repaired, err := fs.ReadPage(4, nil); err != nil || repaired {
		t.Fatalf("checksum-off read = (repaired=%v, %v), want silent success", repaired, err)
	}
	st := fs.Stats()
	if st.SilentCorruptReads != 1 || st.CorruptDetected != 0 {
		t.Errorf("stats = %+v, want 1 silent read, 0 detected", st)
	}
	// Scrub has nothing to verify without checksums.
	if rep := fs.Scrub(100, nil); rep != (ScrubReport{}) {
		t.Errorf("checksum-off scrub = %+v, want zero work", rep)
	}
}

// TestLayoutRoundTripOnDisk: the on-disk relayout property test — for every
// layout, FileStore.Relayout rewrites the file into the new physical order
// and the file still decodes to exactly the store's pages (identical result
// sets), both live and after a reopen.
func TestLayoutRoundTripOnDisk(t *testing.T) {
	for _, l := range []Layout{HilbertLayout(), STRLayout(), InsertionLayout()} {
		t.Run(l.Name(), func(t *testing.T) {
			s := paginatedStore(t, 600, 8)
			fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
			if err := fs.Relayout(s, l, nil); err != nil {
				t.Fatal(err)
			}
			if fs.Generation() != 2 || fs.LayoutName() != l.Name() || s.LayoutName() != l.Name() {
				t.Fatalf("after relayout gen=%d file layout=%q store layout=%q",
					fs.Generation(), fs.LayoutName(), s.LayoutName())
			}
			if err := fs.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
			// Round-trip back to insertion order: generation 3, still verifies.
			if err := fs.Relayout(s, InsertionLayout(), nil); err != nil {
				t.Fatal(err)
			}
			if err := fs.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
			path := fs.Path()
			fs.Close()
			re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Generation() != 3 {
				t.Fatalf("reopened generation %d, want 3", re.Generation())
			}
			if err := re.VerifyAgainst(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRelayoutCrashMatrix kills a relayout at EVERY enumerated crash point
// and proves reopening the path always recovers a fully valid store — old or
// new generation, identical result sets — with and without a replica.
func TestRelayoutCrashMatrix(t *testing.T) {
	for _, replica := range []bool{true, false} {
		name := "replica"
		if !replica {
			name = "no-replica"
		}
		t.Run(name, func(t *testing.T) {
			for _, pt := range RelayoutCrashPoints() {
				t.Run(pt.String(), func(t *testing.T) {
					// CrashAfterReplicaWrite only exists on the replica path.
					if pt == CrashAfterReplicaWrite && !replica {
						t.Skip("no replica step without a replica")
					}
					s := paginatedStore(t, 600, 8)
					cfg := FileStoreConfig{Mode: ChecksumRepair, Replica: replica}
					path := filepath.Join(t.TempDir(), "crash.pages")
					fs, err := CreateFileStore(path, s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					err = fs.Relayout(s, HilbertLayout(), crashAt(pt))
					if !errors.Is(err, ErrInjectedCrash) {
						t.Fatalf("relayout at %s = %v, want ErrInjectedCrash", pt, err)
					}
					// The crashed process is dead: drop its handles and recover
					// from the bytes alone.
					fs.Close()
					re, err := OpenFileStore(path, cfg)
					if err != nil {
						t.Fatalf("recovery open: %v", err)
					}
					defer re.Close()
					if g := re.Generation(); g != 1 && g != 2 {
						t.Fatalf("recovered generation %d, want 1 (rolled back) or 2 (rolled forward)", g)
					}
					if err := re.VerifyAgainst(s); err != nil {
						t.Fatalf("recovered store does not verify: %v", err)
					}
					if _, err := os.Stat(path + shadowSuffix); !os.IsNotExist(err) {
						t.Errorf("shadow file survived recovery (stat err %v)", err)
					}
					// Forward progress: the recovered store relayouts cleanly.
					if err := re.Relayout(s, STRLayout(), nil); err != nil {
						t.Fatal(err)
					}
					if err := re.VerifyAgainst(s); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestOpenRepairsLostHeaderEntries: zeroing header-table entries on disk is
// recovered from a same-generation replica at open; without one the pages
// read as corrupt instead of wrong.
func TestOpenRepairsLostHeaderEntries(t *testing.T) {
	s := paginatedStore(t, 300, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	path := fs.Path()
	fs.Close()

	// Smash two header-table entries in place.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, entryBytes)
	for _, slot := range []PageID{0, 9} {
		if _, err := f.WriteAt(zero, entryOff(slot)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Repaired != 2 {
		t.Errorf("open repaired %d entries, want 2", st.Repaired)
	}
	if err := re.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

// TestRepairTruncatedFileUnderConcurrentReads: frames a truncation cut off
// open as bad pages, and concurrent readers heal them from the replica while
// other pages read without the repair lock; once the ledger drains every
// read is clean and the file verifies.
func TestRepairTruncatedFileUnderConcurrentReads(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	path := fs.Path()
	fs.Close()
	const lost = 3
	if err := os.Truncate(path, fs.frameOff(PageID(fs.NumPages()-lost))); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.numBad.Load(); got != lost {
		t.Fatalf("open recorded %d bad pages, want %d", got, lost)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, frameBytes)
			for i := 0; i < re.NumPages(); i++ {
				p := PageID((i + w*7) % re.NumPages())
				payload, _, err := re.ReadPage(p, buf)
				if err != nil {
					t.Errorf("worker %d page %d: %v", w, p, err)
					return
				}
				if want := len(s.PageObjects(p)) * objBytes; len(payload) != want {
					t.Errorf("worker %d page %d: %d bytes, want %d", w, p, len(payload), want)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := re.numBad.Load(); got != 0 {
		t.Errorf("%d pages still bad after every page was read", got)
	}
	if st := re.Stats(); st.Repaired != lost {
		t.Errorf("repaired %d pages, want %d", st.Repaired, lost)
	}
	if err := re.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairsEverything: scrubbing in bounded steps walks the whole
// file (cursor wrapping), finds every rotten page and heals it before any
// demand read meets it.
func TestScrubRepairsEverything(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	dmg := &testDamage{flip: map[PageID]int{1: 5, 17: 800, 40: 31000}, tear: map[PageID]bool{25: true}}
	if _, _, err := fs.ApplyCorruption(dmg); err != nil {
		t.Fatal(err)
	}
	const step = 7
	var scanned, corrupt, repaired int64
	for i := 0; i < (fs.NumPages()+step-1)/step; i++ {
		rep := fs.Scrub(step, nil)
		if rep.Scanned > step {
			t.Fatalf("step %d scanned %d pages, rate limit is %d", i, rep.Scanned, step)
		}
		scanned += rep.Scanned
		corrupt += rep.Corrupt
		repaired += rep.Repaired
	}
	// The cursor wraps, so a whole number of steps covers every slot at
	// least once (re-scanned slots are clean by then).
	if scanned < int64(fs.NumPages()) {
		t.Errorf("scrubbed %d pages over a full cycle, want at least %d", scanned, fs.NumPages())
	}
	if corrupt != 4 || repaired != 4 {
		t.Errorf("scrub found %d corrupt, repaired %d, want 4 and 4", corrupt, repaired)
	}
	if err := fs.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
	// Demand reads after the scrub never see the damage.
	for p := range dmg.flip {
		if _, repaired, err := fs.ReadPage(p, nil); err != nil || repaired {
			t.Errorf("page %d post-scrub read = (repaired=%v, %v), want clean", p, repaired, err)
		}
	}
}

// TestDiskBackingAccounting: a Disk armed with a backing file verifies every
// read, attributes corruption to the dedicated counters (NEVER to
// TimedOutReads, even with a fault injector timing out other reads), prices
// repair on the virtual clock, and keeps the typed error in the ledger.
func TestDiskBackingAccounting(t *testing.T) {
	s := paginatedStore(t, 400, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumVerify})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{6: 123}}); err != nil {
		t.Fatal(err)
	}

	d := NewDisk(s, DefaultCostModel())
	d.SetBacking(fs)
	// Page 9 always times out; page 6 is corrupt. The two failure classes
	// must stay separately attributable.
	d.SetFaults(&scriptedInjector{failures: map[PageID]int{9: 99}, slow: map[PageID]time.Duration{}},
		RetryPolicy{MaxRetries: 2, Backoff: 100 * time.Microsecond, Timeout: 10 * time.Millisecond})

	clean := NewDisk(s, DefaultCostModel())
	cleanCost := clean.ReadPage(0)
	if got := d.ReadPage(0); got != cleanCost {
		t.Errorf("clean backed read cost %v, want sim cost %v", got, cleanCost)
	}

	d.ReadPage(6) // corrupt, unrepairable
	d.ReadPage(9) // times out
	st := d.Stats()
	if st.CorruptPages != 1 || st.RepairedPages != 0 {
		t.Errorf("stats = %+v, want exactly 1 corrupt page", st)
	}
	if st.TimedOutReads != 1 {
		t.Errorf("stats = %+v, want exactly 1 timed-out read (corruption must not count)", st)
	}
	if st.CorruptDelay != d.Model().CorruptionCost(false) {
		t.Errorf("corrupt delay %v, want %v", st.CorruptDelay, d.Model().CorruptionCost(false))
	}
	if st.WallRead <= 0 {
		t.Error("backed reads recorded no wall time")
	}
	var cpe *CorruptPageError
	if len(d.Errs()) != 1 || !errors.As(d.Errs()[0], &cpe) || cpe.Page != 6 {
		t.Errorf("error ledger = %v, want one *CorruptPageError for page 6", d.Errs())
	}
}

// TestDiskScrubStep: ScrubStep prices the scrub walk on the virtual clock
// (seek + transfers + repair costs), resets the head, and no-ops without a
// backing store.
func TestDiskScrubStep(t *testing.T) {
	s := paginatedStore(t, 300, 8)
	fs := newFileStore(t, s, FileStoreConfig{Mode: ChecksumRepair, Replica: true})
	if _, _, err := fs.ApplyCorruption(&testDamage{flip: map[PageID]int{8: 42}}); err != nil {
		t.Fatal(err)
	}
	d := NewDisk(s, DefaultCostModel())
	if got := d.ScrubStep(10); got != 0 {
		t.Fatalf("unbacked ScrubStep charged %v", got)
	}
	d.SetBacking(fs)
	m := d.Model()
	cost := d.ScrubStep(10)
	want := m.Seek + 10*m.Transfer + (m.Seek + 2*m.Transfer) // slot 8 repaired in the first 10
	if cost != want {
		t.Errorf("scrub cost %v, want %v", cost, want)
	}
	st := d.Stats()
	if st.ScrubbedPages != 10 || st.RepairedPages != 1 || st.ScrubIO != cost {
		t.Errorf("stats = %+v, want 10 scrubbed, 1 repaired", st)
	}
}

// TestSatAddSaturates: the monotone DiskStats counters clamp at MaxInt64
// instead of wrapping negative.
func TestSatAddSaturates(t *testing.T) {
	a := int64(math.MaxInt64 - 2)
	satAdd(&a, 1)
	if a != math.MaxInt64-1 {
		t.Fatalf("normal add = %d", a)
	}
	satAdd(&a, 5)
	if a != math.MaxInt64 {
		t.Fatalf("overflowing add = %d, want MaxInt64", a)
	}
	satAdd(&a, 1)
	if a != math.MaxInt64 {
		t.Fatalf("saturated add = %d, want MaxInt64", a)
	}
}

// TestParseChecksumMode: empty means the hardened default; unknown names are
// errors, never silent fallbacks.
func TestParseChecksumMode(t *testing.T) {
	if m, err := ParseChecksumMode(""); err != nil || m != ChecksumRepair {
		t.Errorf("ParseChecksumMode(\"\") = (%v, %v), want repair", m, err)
	}
	for _, name := range ChecksumModeNames() {
		m, err := ParseChecksumMode(name)
		if err != nil {
			t.Errorf("ParseChecksumMode(%q): %v", name, err)
		}
		if m.String() != name {
			t.Errorf("mode %q round-trips as %q", name, m.String())
		}
	}
	for _, bad := range []string{"crc", "OFF", "Repair", "none"} {
		if _, err := ParseChecksumMode(bad); err == nil {
			t.Errorf("ParseChecksumMode(%q) accepted", bad)
		}
	}
}
