package iss

import (
	"testing"
	"testing/quick"

	"repro/internal/checksum"
)

// run assembles src, loads it at 0, seeds registers and runs to ECALL.
func run(t *testing.T, src string, seed map[int]uint32) *CPU {
	t.Helper()
	words, _, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cpu := New(16 * 1024)
	if err := cpu.LoadProgram(words, 0); err != nil {
		t.Fatal(err)
	}
	for r, v := range seed {
		cpu.X[r] = v
	}
	halt, err := cpu.Run(1_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if halt != HaltECall {
		t.Fatalf("halt = %v, want ecall", halt)
	}
	return cpu
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		src  string
		want uint32 // expected a0
	}{
		{"li a0, 5\nli a1, 7\nadd a0, a0, a1\necall", 12},
		{"li a0, 5\nli a1, 7\nsub a0, a0, a1\necall", 0xfffffffe},
		{"li a0, 0b1100\nli a1, 0b1010\nand a0, a0, a1\necall", 0b1000},
		{"li a0, 0b1100\nli a1, 0b1010\nor a0, a0, a1\necall", 0b1110},
		{"li a0, 0b1100\nli a1, 0b1010\nxor a0, a0, a1\necall", 0b0110},
		{"li a0, 1\nli a1, 4\nsll a0, a0, a1\necall", 16},
		{"li a0, -16\nli a1, 2\nsra a0, a0, a1\necall", 0xfffffffc},
		{"li a0, -16\nli a1, 2\nsrl a0, a0, a1\necall", 0x3ffffffc},
		{"li a0, -1\nli a1, 1\nslt a0, a0, a1\necall", 1},
		{"li a0, -1\nli a1, 1\nsltu a0, a0, a1\necall", 0}, // 0xffffffff not < 1
		{"li a0, 100\naddi a0, a0, -1\necall", 99},
		{"li a0, 0xf0\nandi a0, a0, 0x3c\necall", 0x30},
		{"li a0, 3\nslli a0, a0, 4\necall", 48},
		{"li a0, -8\nsrai a0, a0, 1\necall", 0xfffffffc},
		{"lui a0, 0xdead0\nsrli a0, a0, 12\necall", 0xdead0},
		{"li a0, 0x12345678\necall", 0x12345678}, // li expansion
		{"li a0, -1\necall", 0xffffffff},
		{"not a0, zero\necall", 0xffffffff},
		{"li a1, 9\nneg a0, a1\necall", uint32(0xfffffff7)},
		{"li a1, 77\nmv a0, a1\necall", 77},
	}
	for _, c := range cases {
		cpu := run(t, c.src, nil)
		if cpu.X[10] != c.want {
			t.Errorf("program %q: a0 = %#x, want %#x", c.src, cpu.X[10], c.want)
		}
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	cpu := run(t, "li a0, 5\nadd zero, a0, a0\nmv a0, zero\necall", nil)
	if cpu.X[10] != 0 {
		t.Fatalf("x0 was written: a0 = %d", cpu.X[10])
	}
}

func TestLoadsAndStores(t *testing.T) {
	src := `
    li   t0, 0x1000
    li   t1, 0x87654321
    sw   t1, 0(t0)
    lw   a0, 0(t0)      # full word back
    lhu  a1, 0(t0)      # low half zero-extended
    lh   a2, 2(t0)      # high half sign-extended
    lbu  a3, 3(t0)      # top byte
    lb   a4, 3(t0)      # top byte sign-extended
    sh   a1, 8(t0)
    lw   a5, 8(t0)
    sb   a3, 12(t0)
    lbu  a6, 12(t0)
    ecall`
	cpu := run(t, src, nil)
	checks := []struct {
		reg  int
		want uint32
	}{
		{10, 0x87654321},
		{11, 0x4321},
		{12, 0xffff8765},
		{13, 0x87},
		{14, 0xffffff87},
		{15, 0x4321},
		{16, 0x87},
	}
	for _, c := range checks {
		if cpu.X[c.reg] != c.want {
			t.Errorf("x%d = %#x, want %#x", c.reg, cpu.X[c.reg], c.want)
		}
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a loop.
	src := `
    li a0, 0
    li t0, 1
    li t1, 11
loop:
    bge t0, t1, done
    add a0, a0, t0
    addi t0, t0, 1
    j loop
done:
    ecall`
	cpu := run(t, src, nil)
	if cpu.X[10] != 55 {
		t.Fatalf("sum = %d, want 55", cpu.X[10])
	}
}

func TestBranchVariants(t *testing.T) {
	src := `
    li a0, 0
    li t0, -1
    li t1, 1
    blt  t0, t1, l1      # signed: taken
    j fail
l1: bltu t1, t0, l2      # unsigned: 1 < 0xffffffff taken
    j fail
l2: bge  t1, t0, l3      # signed: 1 >= -1 taken
    j fail
l3: bgeu t0, t1, l4      # unsigned: taken
    j fail
l4: beq  t0, t0, l5
    j fail
l5: bne  t0, t1, ok
    j fail
fail:
    li a0, 666
ok: ecall`
	cpu := run(t, src, nil)
	if cpu.X[10] != 0 {
		t.Fatal("a branch variant misbehaved")
	}
}

func TestCallRet(t *testing.T) {
	src := `
    li   a0, 20
    call double
    call double
    ecall
double:
    add  a0, a0, a0
    ret`
	cpu := run(t, src, nil)
	if cpu.X[10] != 80 {
		t.Fatalf("a0 = %d, want 80", cpu.X[10])
	}
}

func TestAuipcAndJalr(t *testing.T) {
	src := `
    auipc t0, 0        # t0 = 0
    jalr  ra, 12(t0)   # jump to byte 12 (the ecall below)
    li    a0, 666      # skipped
    ecall`
	cpu := run(t, src, nil)
	if cpu.X[10] == 666 {
		t.Fatal("jalr did not skip the li")
	}
	if cpu.X[1] != 8 {
		t.Fatalf("ra = %d, want 8", cpu.X[1])
	}
}

func TestCycleCosts(t *testing.T) {
	// 3 ALU (li,li,add via addi...) — count explicitly:
	// li a0,5 → addi (1 ALU); li a1,7 → addi (1); add (1); ecall (1 ALU-class).
	cpu := run(t, "li a0, 5\nli a1, 7\nadd a0, a0, a1\necall", nil)
	if cpu.Steps != 4 {
		t.Fatalf("steps = %d, want 4", cpu.Steps)
	}
	if cpu.Cycles != 4 {
		t.Fatalf("cycles = %d, want 4 (all ALU)", cpu.Cycles)
	}
	// Loads cost 2.
	cpu2 := run(t, "li t0, 64\nlw a0, 0(t0)\necall", nil)
	if cpu2.Cycles != 1+2+1 {
		t.Fatalf("cycles = %d, want 4 (ALU+Load+ALU)", cpu2.Cycles)
	}
}

func TestIllegalInstruction(t *testing.T) {
	cpu := New(64)
	cpu.Mem[0] = 0xff // opcode 0x7f: illegal
	if _, err := cpu.Step(); err == nil {
		t.Fatal("illegal opcode executed")
	}
}

func TestMemoryFaults(t *testing.T) {
	for _, src := range []string{
		"li t0, 0x7ffffff0\nlw a0, 0(t0)\necall",
		"li t0, 0x7ffffff0\nsw t0, 0(t0)\necall",
	} {
		words, _, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		cpu := New(4096)
		if err := cpu.LoadProgram(words, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := cpu.Run(100); err == nil {
			t.Fatalf("out-of-range access in %q did not fault", src)
		}
	}
}

func TestMaxStepsHalts(t *testing.T) {
	words, _, err := Assemble("spin: j spin")
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(64)
	if err := cpu.LoadProgram(words, 0); err != nil {
		t.Fatal(err)
	}
	halt, err := cpu.Run(1000)
	if err != nil || halt != HaltMaxSteps {
		t.Fatalf("halt=%v err=%v, want max-steps", halt, err)
	}
}

func TestEBreakHalts(t *testing.T) {
	cpu := New(64)
	words, _, err := Assemble("ebreak")
	if err != nil {
		t.Fatal(err)
	}
	cpu.LoadProgram(words, 0)
	halt, err := cpu.Run(10)
	if err != nil || halt != HaltEBreak {
		t.Fatalf("halt=%v err=%v", halt, err)
	}
}

func TestResetPreservesMemory(t *testing.T) {
	cpu := New(128)
	cpu.WriteWord(64, 0xabcd)
	cpu.X[5] = 99
	cpu.PC = 16
	cpu.Cycles = 7
	cpu.Reset()
	if cpu.X[5] != 0 || cpu.PC != 0 || cpu.Cycles != 0 {
		t.Fatal("Reset did not clear CPU state")
	}
	if v, _ := cpu.ReadWord(64); v != 0xabcd {
		t.Fatal("Reset wiped memory")
	}
}

// The headline differential test: the ISS checksum kernel agrees with the
// Go reference implementation on arbitrary inputs, and its cycle count
// scales linearly with input length.
func TestChecksumKernelMatchesReference(t *testing.T) {
	f := func(words []uint16) bool {
		if len(words) > 512 {
			words = words[:512]
		}
		got, _, err := RunChecksum(words)
		if err != nil {
			t.Logf("RunChecksum: %v", err)
			return false
		}
		return got == checksum.InternetWords(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKernelCycleScaling(t *testing.T) {
	_, c8, err := RunChecksum(make([]uint16, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, c64, err := RunChecksum(make([]uint16, 64))
	if err != nil {
		t.Fatal(err)
	}
	if c64 <= c8 {
		t.Fatalf("cycles did not grow with input: %d vs %d", c8, c64)
	}
	perWord := float64(c64-c8) / 56
	if perWord < 4 || perWord > 16 {
		t.Fatalf("per-word cost %.1f cycles outside plausible range", perWord)
	}
}

func TestHaltReasonStrings(t *testing.T) {
	for h := HaltNone; h <= HaltMaxSteps; h++ {
		if h.String() == "" {
			t.Fatalf("no name for halt reason %d", h)
		}
	}
	if HaltReason(9).String() == "" {
		t.Fatal("unknown halt reason string empty")
	}
}
