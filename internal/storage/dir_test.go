package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCreateDirSyncsCatalogPublish is the regression test for the
// ingest-durability bug: CreateDir wrote segments, dictionary, and
// catalog without a single fsync, so a crash after it returned could
// lose the whole acknowledged ingest — or worse, leave a catalog whose
// bytes reached disk referencing segments whose bytes did not. The
// catalog publish must sync the file and then the directory, which also
// persists the segment and dictionary entries created before it.
func TestCreateDirSyncsCatalogPublish(t *testing.T) {
	db := NewDatabase()
	rel := NewRelation("r", "A", "B")
	rel.Insert(Tuple{Int(1), Int(2)})
	db.Add(rel)
	dir := t.TempDir()

	calls := 0
	orig := fsyncDir
	fsyncDir = func(path string) error {
		if path != dir {
			t.Errorf("fsyncDir(%q), want the data directory %q", path, dir)
		}
		calls++
		return orig(path)
	}
	defer func() { fsyncDir = orig }()

	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("CreateDir returned without syncing the data directory: a crash would lose the acknowledged ingest")
	}
}

// TestAppendDeltaSyncsDirectoryEntry is the regression test for the
// mutate-durability bug: AppendDelta fsynced the delta file's bytes but
// never the directory, so a crash after the acknowledgement could lose a
// freshly created delta file's *name* — and with it the whole batch.
// The fix must sync the directory exactly when the file is new; appends
// to an existing delta file (whose entry already survived a sync) must
// not pay for it again.
func TestAppendDeltaSyncsDirectoryEntry(t *testing.T) {
	db := NewDatabase()
	rel := NewRelation("r", "A", "B")
	rel.Insert(Tuple{Int(1), Int(2)})
	db.Add(rel)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	_, handle, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	orig := fsyncDir
	fsyncDir = func(path string) error {
		if path != dir {
			t.Errorf("fsyncDir(%q), want the data directory %q", path, dir)
		}
		calls++
		return orig(path)
	}
	defer func() { fsyncDir = orig }()

	if err := handle.AppendDelta("r", []Tuple{{Int(3), Int(4)}}, 2); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fresh delta file: directory synced %d times, want 1 (a crash would lose the new entry)", calls)
	}
	if err := handle.AppendDelta("r", []Tuple{{Int(5), Int(6)}}, 3); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("existing delta file: directory synced %d times total, want still 1", calls)
	}

	// Restart durability: a fresh open (either engine) must serve both
	// acknowledged batches at the bumped version.
	for _, engine := range []Engine{EngineMemory, EngineDisk} {
		re, _, err := OpenDir(dir, engine)
		if err != nil {
			t.Fatal(err)
		}
		if re.Version() != 3 {
			t.Fatalf("%v: reopened version %d, want 3", engine, re.Version())
		}
		got, err := re.Relation("r")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3 {
			t.Fatalf("%v: reopened with %d rows, want 3", engine, got.Len())
		}
		for _, tp := range []Tuple{{Int(3), Int(4)}, {Int(5), Int(6)}} {
			if !got.Contains(tp) {
				t.Fatalf("%v: acknowledged row %v missing after restart", engine, tp)
			}
		}
	}
}

// TestAppendDeltaFsyncDirFailure: a directory-sync failure must fail the
// append (the caller then refuses to publish the bumped version) rather
// than acknowledge a batch that may not survive.
func TestAppendDeltaFsyncDirFailure(t *testing.T) {
	db := NewDatabase()
	rel := NewRelation("r", "A")
	rel.Insert(Tuple{Int(1)})
	db.Add(rel)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	_, handle, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	orig := fsyncDir
	fsyncDir = func(string) error { return errSyncFailed }
	defer func() { fsyncDir = orig }()
	if err := handle.AppendDelta("r", []Tuple{{Int(2)}}, 2); err != errSyncFailed {
		t.Fatalf("AppendDelta with failing directory sync: err = %v, want %v", err, errSyncFailed)
	}
}

var errSyncFailed = errTest("directory sync failed")

type errTest string

func (e errTest) Error() string { return string(e) }

// TestOpenDirRefusesOldFormat checks that a catalog of an older format
// (segments ordered by the pre-exact Value.Compare) is refused with an
// error naming the format, never opened and misread.
func TestOpenDirRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, dictDB()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, catalogFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"format": 2`, `"format": 1`, 1)
	if old == string(raw) {
		t.Fatalf("catalog carries no format 2 field:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineMemory, EngineDisk} {
		if _, _, err := OpenDir(dir, engine); err == nil || !strings.Contains(err.Error(), "format 1") {
			t.Fatalf("OpenDir(%v) of a format 1 catalog: err = %v", engine, err)
		}
	}
}
