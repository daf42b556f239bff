package caf

import (
	"strings"
	"testing"
)

func TestFormTeamEvenOdd(t *testing.T) {
	forEachTransport(t, 6, func(img *Image) {
		tm := img.FormTeam(int64(img.ThisImage() % 2))
		if tm.NumImages() != 3 {
			panic("even/odd team should have 3 members")
		}
		// Team numbering is 1-based and dense.
		if tm.ThisImage() < 1 || tm.ThisImage() > 3 {
			panic("team rank out of range")
		}
		// Global <-> team index mapping round-trips.
		if tm.GlobalImage(tm.ThisImage()) != img.ThisImage() {
			panic("GlobalImage(ThisImage) must be the global index")
		}
		if tm.TeamImage(img.ThisImage()) != tm.ThisImage() {
			panic("TeamImage inverse wrong")
		}
		// Non-members map to 0.
		other := img.ThisImage()%img.NumImages() + 1
		if (other%2 != img.ThisImage()%2) && tm.TeamImage(other) != 0 {
			panic("non-member should map to 0")
		}
		img.SyncAll()
	})
}

func TestTeamSyncOrdersWithinTeam(t *testing.T) {
	err := Run(6, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(int64(img.ThisImage() % 2))
		c := Allocate[int64](img, 1)
		// Team rank 1 produces for team rank 2, within each team.
		switch tm.ThisImage() {
		case 1:
			c.PutElem(tm.GlobalImage(2), int64(100+tm.ThisImage()), 0)
		}
		tm.Sync()
		if tm.ThisImage() == 2 {
			if c.At(0) != 101 {
				panic("team sync did not order the put")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamCollectivesPerTeam(t *testing.T) {
	forEachTransport(t, 8, func(img *Image) {
		// Teams {1..4} and {5..8}.
		teamNo := int64(0)
		if img.ThisImage() > 4 {
			teamNo = 1
		}
		tm := img.FormTeam(teamNo)
		// co_sum of the global indices, per team: 1+2+3+4=10, 5+6+7+8=26.
		sum := []int64{int64(img.ThisImage())}
		CoSumTeam(tm, sum, 0)
		want := int64(10)
		if teamNo == 1 {
			want = 26
		}
		if sum[0] != want {
			panic("team co_sum wrong")
		}
		// Min/max per team.
		mn, mx := []int64{int64(img.ThisImage())}, []int64{int64(img.ThisImage())}
		CoMinTeam(tm, mn, 0)
		CoMaxTeam(tm, mx, 0)
		if teamNo == 0 && (mn[0] != 1 || mx[0] != 4) {
			panic("team 0 min/max wrong")
		}
		if teamNo == 1 && (mn[0] != 5 || mx[0] != 8) {
			panic("team 1 min/max wrong")
		}
		img.SyncAll()
	})
}

func TestTeamBroadcast(t *testing.T) {
	err := Run(9, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(int64((img.ThisImage() - 1) / 3)) // teams of 3
		v := []int64{0}
		if tm.ThisImage() == 2 {
			v[0] = int64(1000 + tm.TeamNumber())
		}
		CoBroadcastTeam(tm, v, 2)
		if v[0] != int64(1000+tm.TeamNumber()) {
			panic("team broadcast wrong value")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamResultImage(t *testing.T) {
	err := Run(4, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(0) // everyone in one team
		sum := []int64{1}
		CoSumTeam(tm, sum, 3)
		if tm.ThisImage() == 3 && sum[0] != 4 {
			panic("team result image did not receive the sum")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingletonTeam(t *testing.T) {
	err := Run(3, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(int64(img.ThisImage())) // three singleton teams
		if tm.NumImages() != 1 || tm.ThisImage() != 1 {
			panic("singleton team shape wrong")
		}
		tm.Sync() // must not deadlock
		sum := []int64{7}
		if CoSumTeam(tm, sum, 0); sum[0] != 7 {
			panic("singleton reduction wrong")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTeamCollectives(t *testing.T) {
	// Disjoint teams run many collectives concurrently; their flags must not
	// interfere.
	err := Run(8, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(int64((img.ThisImage() - 1) % 4)) // 4 teams of 2
		base := int64(tm.TeamNumber() * 100)
		for round := int64(0); round < 20; round++ {
			sum := []int64{base + round}
			if CoSumTeam(tm, sum, 0); sum[0] != 2*(base+round) {
				panic("concurrent team collective corrupted")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamScratchLimit(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(0, 64) // tiny scratch
		big := make([]int64, 4096)
		CoSumTeam(tm, big, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "scratch") {
		t.Fatalf("expected team scratch exhaustion, got %v", err)
	}
}

func TestFormTeamValidation(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		img.FormTeam(0, -5)
	})
	if err == nil {
		t.Fatal("negative scratch should fail")
	}
	err = Run(2, shmemOpts(), func(img *Image) {
		tm := img.FormTeam(0)
		tm.GlobalImage(3)
	})
	if err == nil {
		t.Fatal("out-of-range team image should fail")
	}
}
