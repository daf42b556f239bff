package shmem

import "testing"

func TestSymAtBounds(t *testing.T) {
	s := Sym{Off: 100, Size: 8}
	if s.At(0) != 100 || s.At(7) != 107 {
		t.Fatal("At arithmetic wrong")
	}
	for _, bad := range []int64{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) should panic", bad)
				}
			}()
			s.At(bad)
		}()
	}
}
