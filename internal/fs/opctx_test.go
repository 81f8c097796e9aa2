package fs

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// requireCleanCtx fails when a pooled context still carries state from
// the operation that used it last.
func requireCleanCtx(t *testing.T, f *FS) {
	t.Helper()
	ctx := f.beginOp()
	defer f.endOp(ctx)
	if len(ctx.overlay) != 0 || len(ctx.seq) != 0 || len(ctx.undo) != 0 || len(ctx.freed) != 0 {
		t.Fatalf("pooled context not reset: overlay %d seq %d undo %d freed %d",
			len(ctx.overlay), len(ctx.seq), len(ctx.undo), len(ctx.freed))
	}
}

// TestPooledContextDoesNotLeak runs operations that fail mid-way — a
// WriteAt that runs out of space after allocating and staging blocks,
// and lookups of missing paths — and checks that nothing of theirs
// reaches the next operation on the same pooled contexts.
func TestPooledContextDoesNotLeak(t *testing.T) {
	f := newFSForTest(t, 256, Options{})
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/d/fill"); err != nil {
		t.Fatal(err)
	}
	free0 := f.FreeBlockCount()
	err := f.WriteAt("/d/fill", 0, bytes.Repeat([]byte{0xAB}, 2<<20))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized WriteAt: err = %v, want ErrNoSpace", err)
	}
	requireCleanCtx(t, f)
	if f.FreeBlockCount() != free0 || f.StagedBlocks() != 0 {
		t.Fatalf("failed WriteAt leaked: free %d (was %d), staged %d", f.FreeBlockCount(), free0, f.StagedBlocks())
	}
	for _, p := range []string{"/d/missing", "/missing/x", "/d/fill/x"} {
		if _, err := f.Stat(p); err == nil {
			t.Fatalf("Stat(%s) succeeded", p)
		}
		if err := f.WriteAt(p, 0, []byte("x")); err == nil {
			t.Fatalf("WriteAt(%s) succeeded", p)
		}
		requireCleanCtx(t, f)
	}
	// The next operations see only committed state and work normally.
	payload := bytes.Repeat([]byte("next op "), 1500)
	if err := f.WriteAt("/d/fill", 100, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/d/other", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt("/d/fill", 100, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read-back after failed ops: %v", err)
	}
	head := make([]byte, 100)
	if _, err := f.ReadAt("/d/fill", 0, head); err != nil || !bytes.Equal(head, make([]byte, 100)) {
		t.Fatal("failed WriteAt's bytes reached the file")
	}
	if got, _ := f.ReadFile("/d/other"); string(got) != "ok" {
		t.Fatalf("/d/other = %q", got)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	requireCleanCtx(t, f)
}

// TestPathWalkMatchesSplitPath checks that the allocation-free walk
// (checkPath/nextComponent) sees exactly splitPath's components.
func TestPathWalkMatchesSplitPath(t *testing.T) {
	long := string(bytes.Repeat([]byte("n"), maxNameLen+1))
	for _, p := range []string{"", "/", "//", "/a", "a/b", "/a//b/./c/", "./.", "/a/../b", "/" + long, "/x/" + long + "/..", "/../" + long} {
		parts, err := splitPath(p)
		n, err2 := checkPath(p)
		if err != err2 {
			t.Fatalf("%q: checkPath err %v, splitPath err %v", p, err2, err)
		}
		if err != nil {
			continue
		}
		var walked []string
		for name, i := nextComponent(p, 0); name != ""; name, i = nextComponent(p, i) {
			walked = append(walked, name)
		}
		if n != len(parts) || len(walked) != len(parts) {
			t.Fatalf("%q: %d/%d components, splitPath %d", p, n, len(walked), len(parts))
		}
		for i := range parts {
			if walked[i] != parts[i] {
				t.Fatalf("%q: component %d = %q, splitPath %q", p, i, walked[i], parts[i])
			}
		}
	}
}

// mapID identifies a map's storage, so a test can tell a map cleared in
// place from one swapped for a fresh map.
func mapID[V any](m map[uint64]V) uintptr {
	return uintptr(reflect.ValueOf(m).UnsafePointer())
}

// TestBulkOpLeavesSmallMaps checks that a reset after a bulk operation
// swaps the op overlay and the group's staged and revoked maps for fresh
// ones, and that a reset after a small operation keeps them. clear costs
// O(capacity), so a kept bulk-sized map would make every later small
// operation pay for the bulk one.
func TestBulkOpLeavesSmallMaps(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})

	// The pooled context, driven directly.
	for _, n := range []int{3, maxKeptMapLen, maxKeptMapLen + 1, 4096} {
		ctx := f.beginOp()
		for no := uint64(0); no < uint64(n); no++ {
			ctx.overlay[no] = nil
			ctx.seq = append(ctx.seq, no)
		}
		before := mapID(ctx.overlay)
		f.endOp(ctx)
		if len(ctx.overlay) != 0 {
			t.Fatalf("%d-block overlay not emptied", n)
		}
		if kept := mapID(ctx.overlay) == before; kept != (n <= maxKeptMapLen) {
			t.Fatalf("%d-block overlay: kept = %v, want %v", n, kept, n <= maxKeptMapLen)
		}
	}

	// The group maps, through real operations (every operation commits).
	small := bytes.Repeat([]byte{1}, BlockSize)
	bulk := bytes.Repeat([]byte{2}, 4*maxKeptMapLen*BlockSize)
	staged, revokes := mapID(f.staged), mapID(f.stagedRevokes)
	if err := f.WriteFile("/small", small); err != nil {
		t.Fatal(err)
	}
	if mapID(f.staged) != staged || mapID(f.stagedRevokes) != revokes {
		t.Fatal("a one-block write replaced the group maps")
	}
	if err := f.WriteFile("/bulk", bulk); err != nil {
		t.Fatal(err)
	}
	if mapID(f.staged) == staged || len(f.staged) != 0 {
		t.Fatal("staged map kept after a bulk write")
	}
	if mapID(f.stagedRevokes) != revokes {
		t.Fatal("a write that freed nothing replaced the revoked map")
	}
	if err := f.Remove("/bulk"); err != nil {
		t.Fatal(err)
	}
	if mapID(f.stagedRevokes) == revokes || len(f.stagedRevokes) != 0 || f.revokesPeak != 0 {
		t.Fatal("revoked map kept after freeing a bulk file")
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	requireCleanCtx(t, f)
}
