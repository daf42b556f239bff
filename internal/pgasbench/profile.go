package pgasbench

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the flags cmd/reproduce takes for profiling one of its runs
// without a test harness around it.
type Profiles struct {
	cpu, mem string
}

// ProfileFlags declares -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile, taken at the end of the run, to this file")
	return p
}

// Start begins the CPU profile, if one was asked for, and returns the function
// that ends the run's profiling: it stops the CPU profile and writes the heap
// profile, each to the file its flag named, and reports a failure on standard
// error. With neither flag set nothing is started and stop does nothing.
func (p *Profiles) Start() (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if p.mem != "" {
			if err := writeHeapProfile(p.mem); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC() // the profile is of live objects as of the last collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
