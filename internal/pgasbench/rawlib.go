package pgasbench

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// rawRank is what one rank of a raw put/get experiment does, in the calls of
// whichever library the experiment compares: put and get move bytes between
// the caller's buffer and offset 0 of the target's maxRawMsg-byte symmetric
// buffer, quiet completes the rank's puts, done ends its part of the job.
type rawRank interface {
	rank() int
	clock() *fabric.Clock
	put(target int, data []byte)
	get(target int, dst []byte)
	quiet()
	barrier()
	done()
}

// rawLibs is the library table, one row per comparator: how to open an n-PE
// job of it with cfg.Pairs active pairs per node, and how to make a rank of
// that job — symmetric buffer allocated, access epoch open — from its PE.
var rawLibs = [...]func(cfg RawPutConfig, npes int) (*pgas.World, func(*pgas.PE) rawRank, error){
	LibSHMEM: func(cfg RawPutConfig, npes int) (*pgas.World, func(*pgas.PE) rawRank, error) {
		w, err := shmem.NewWorld(shmem.Config{Machine: cfg.Machine, Profile: cfg.Profile, Options: pgas.Options{ActivePairs: cfg.Pairs}}, npes)
		if err != nil {
			return nil, nil, err
		}
		return w.PgasWorld(), func(p *pgas.PE) rawRank {
			pe := w.Attach(p)
			return shmemRank{pe, pe.Malloc(maxRawMsg)}
		}, nil
	},
	LibMPI3: func(cfg RawPutConfig, npes int) (*pgas.World, func(*pgas.PE) rawRank, error) {
		w, err := mpi3.NewWorld(mpi3.Config{Machine: cfg.Machine, Profile: cfg.Profile, Options: pgas.Options{ActivePairs: cfg.Pairs}}, npes)
		if err != nil {
			return nil, nil, err
		}
		return w.PgasWorld(), func(p *pgas.PE) rawRank {
			pr := w.Attach(p)
			win := pr.WinAllocate(maxRawMsg)
			pr.LockAll(win) // the passive-target idiom one-sided benchmarks use
			return mpi3Rank{pr, win}
		}, nil
	},
	LibGASNet: func(cfg RawPutConfig, npes int) (*pgas.World, func(*pgas.PE) rawRank, error) {
		w, err := gasnet.NewWorld(gasnet.Config{Machine: cfg.Machine, Profile: cfg.Profile, Options: pgas.Options{ActivePairs: cfg.Pairs}}, npes)
		if err != nil {
			return nil, nil, err
		}
		return w.PgasWorld(), func(p *pgas.PE) rawRank {
			ep := w.Attach(p)
			return gasnetRank{ep, ep.Malloc(maxRawMsg)}
		}, nil
	},
}

// runRaw opens an npes-PE job of cfg's library with cfg.Pairs active pairs
// per node and runs body on every rank of it.
func runRaw(cfg RawPutConfig, npes int, body func(rawRank)) error {
	if cfg.Library < 0 || int(cfg.Library) >= len(rawLibs) {
		return fmt.Errorf("pgasbench: unknown library %d", cfg.Library)
	}
	pw, attach, err := rawLibs[cfg.Library](cfg, npes)
	if err != nil {
		return err
	}
	defer pw.Close()
	return pw.Run(func(p *pgas.PE) {
		r := attach(p)
		body(r)
		r.done()
	})
}

type shmemRank struct {
	pe  *shmem.PE
	buf shmem.Sym
}

func (r shmemRank) rank() int                   { return r.pe.MyPE() }
func (r shmemRank) clock() *fabric.Clock        { return r.pe.Clock() }
func (r shmemRank) put(target int, data []byte) { r.pe.PutMem(target, r.buf, 0, data) }
func (r shmemRank) get(target int, dst []byte)  { r.pe.GetMem(target, r.buf, 0, dst) }
func (r shmemRank) quiet()                      { r.pe.Quiet() }
func (r shmemRank) barrier()                    { r.pe.Barrier() }
func (r shmemRank) done()                       {}

type gasnetRank struct {
	ep  *gasnet.EP
	seg gasnet.Seg
}

func (r gasnetRank) rank() int                   { return r.ep.MyNode() }
func (r gasnetRank) clock() *fabric.Clock        { return r.ep.Clock() }
func (r gasnetRank) put(target int, data []byte) { r.ep.Put(target, r.seg, 0, data) }
func (r gasnetRank) get(target int, dst []byte)  { r.ep.Get(target, r.seg, 0, dst) }
func (r gasnetRank) quiet()                      { r.ep.WaitSyncAll() }
func (r gasnetRank) barrier()                    { r.ep.Barrier() }
func (r gasnetRank) done()                       {}

type mpi3Rank struct {
	pr  *mpi3.Proc
	win *mpi3.Win
}

func (r mpi3Rank) rank() int                   { return r.pr.Rank() }
func (r mpi3Rank) clock() *fabric.Clock        { return r.pr.Clock() }
func (r mpi3Rank) put(target int, data []byte) { r.pr.Put(r.win, target, 0, data) }
func (r mpi3Rank) get(target int, dst []byte)  { r.pr.Get(r.win, target, 0, dst) }
func (r mpi3Rank) quiet()                      { r.pr.FlushAll(r.win) }
func (r mpi3Rank) barrier()                    { r.pr.FlushAll(r.win); r.pr.Barrier() }
func (r mpi3Rank) done()                       { r.pr.UnlockAll(r.win) }
