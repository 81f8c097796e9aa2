package bufpool

import (
	"testing"

	"tinca/internal/raceflag"
)

func TestGetPutAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	Put(Get()) // warm the pool
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get()
		b[0] = 1
		Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Get+Put allocates %v times per call, want 0", allocs)
	}
}

func TestGetReturnsBlock(t *testing.T) {
	b := Get()
	if len(b) != BlockSize || cap(b) != BlockSize {
		t.Fatalf("len %d cap %d, want %d", len(b), cap(b), BlockSize)
	}
	Put(b)
}

func TestPutRejectsShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a short buffer did not panic")
		}
	}()
	Put(make([]byte, BlockSize-1))
}
