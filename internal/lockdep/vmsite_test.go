package lockdep_test

import (
	"regexp"
	"testing"

	"thinlock/internal/core"
	"thinlock/internal/lockdep"
	"thinlock/internal/lockprof"
	"thinlock/internal/minijava"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

// nestedMove nests two synchronized blocks inside a class method, so
// the order edge Acct -> Acct is established at a bytecode site of
// Bank.move.
const nestedMove = `
class Acct { field bal; }
class Bank {
    method move(a: Acct, b: Acct) {
        synchronized (a) {
            synchronized (b) {
                a.bal = a.bal - 1;
                b.bal = b.bal + 1;
            }
        }
        return b.bal;
    }
}
func main() {
    var bank = new Bank;
    var a = new Acct;
    var b = new Acct;
    return bank.move(a, b);
}
`

// TestVMOrderEdgeNamesBytecodeSite: with lockdep the only layer
// enabled, an order edge established by interpreted code is labelled
// with the interpreter frame ("Class.method @pc"), not with the Go
// frames of the interpreter loop. Not parallel: owns the global
// registrations.
func TestVMOrderEdgeNamesBytecodeSite(t *testing.T) {
	telemetry.Disable()
	lockprof.Disable()
	d := lockdep.Enable(lockdep.New(lockdep.Config{}))
	defer lockdep.Disable()

	prog, err := minijava.Compile(nestedMove)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, core.NewDefault(), object.NewHeap())
	if err != nil {
		t.Fatal(err)
	}
	th, err := threading.NewRegistry().Attach("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(th, "main"); err != nil {
		t.Fatal(err)
	}

	edges := d.GraphJSON().Edges
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want the one nested Acct -> Acct edge", edges)
	}
	site := regexp.MustCompile(`^Bank\.move @\d+$`)
	if e := edges[0]; !site.MatchString(e.HoldSite) || !site.MatchString(e.AcquireSite) {
		t.Errorf("edge sites = hold %q, acquire %q; want Bank.move @pc", e.HoldSite, e.AcquireSite)
	}
}
