#!/bin/sh
# Where does a perfbench workload's time go? A sampled CPU profile of its
# timed loop, for hosts without `perf`.
#
#   sh scripts/profile-loop.sh [workload] [trials] [root frame]
#
# defaults: engine-churn, 30 trials, perfbench::engine::drive. It
#
#  1. builds perfbench with frame pointers (RUSTFLAGS="-C
#     force-frame-pointers=yes") into its own target directory,
#     target/profile-loop, so no other build is disturbed;
#  2. compiles a small SIGPROF sampler (setitimer every PROFILE_US µs of
#     CPU, 250 by default, and a frame-pointer walk) with `cc` as a
#     preloadable library;
#  3. runs `perfbench trial --workload W --seed 1 --scale 1 --count N
#     --replay 0` under LD_PRELOAD, the trials alone, in this process;
#  4. symbolizes every sampled address with `addr2line -f -i -C`, inlined
#     frames included (it prints which addr2line it ran, and a warning
#     when that is GNU's, whose innermost inlined frame can take its
#     caller's name), and prints, over the samples whose stack holds the
#     root frame, the inclusive share of each function (in the stack at
#     all) and its self share (innermost frame), largest first;
#  5. with PROFILE_ADDRS=N, also prints the N hottest sampled instruction
#     addresses under the root frame, each with its inlined frame chain,
#     innermost first, and every frame's source line: the view that shows
#     which load or store of a hot function the samples land on.
#
# A sample taken in a library that keeps no frame pointer (libc's memset,
# say) counts the word at its stack pointer as its caller, which is exact
# for a leaf that has pushed nothing. Raw samples and symbols are left in
# target/profile-loop for a second look. Not run in CI: the shares are a
# diagnosis, not a gate.
set -eu

workload=${1:-engine-churn}
trials=${2:-30}
root_frame=${3:-perfbench::engine::drive}
period=${PROFILE_US:-250}
top=${PROFILE_TOP:-25}
addrs=${PROFILE_ADDRS:-0}

repo=$(cd "$(dirname "$0")/.." && pwd)
out="$repo/target/profile-loop"
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
    cargo build --release --offline --quiet --manifest-path "$repo/perfbench/Cargo.toml"
exe="$out/release/perfbench"

cat > "$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <fcntl.h>
#include <link.h>
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 17)
#define MAX_DEPTH 64

static uintptr_t frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depths[MAX_SAMPLES];
static int next_slot;
static uintptr_t exe_lo, exe_hi;

/* A walk that strays off the stack faults; the fault ends the walk. */
static __thread sigjmp_buf walk_escape;
static __thread volatile int walking;

static void on_segv(int sig) {
    if (walking) {
        siglongjmp(walk_escape, 1);
    }
    signal(sig, SIG_DFL); /* a real fault: let it kill the process */
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = ctx;
    int slot = __atomic_fetch_add(&next_slot, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        return;
    }
    uintptr_t *out = frames[slot];
    volatile int n = 0;
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    out[n++] = pc;
    walking = 1;
    if (sigsetjmp(walk_escape, 1) == 0) {
        if (pc < exe_lo || pc >= exe_hi) {
            out[n++] = *(uintptr_t *)sp;
        }
        while (n < MAX_DEPTH && fp > sp && (fp & 7) == 0) {
            uintptr_t up = ((uintptr_t *)fp)[0];
            uintptr_t ret = ((uintptr_t *)fp)[1];
            if (ret == 0) {
                break;
            }
            out[n++] = ret;
            if (up <= fp || up - fp > (1 << 20)) {
                break;
            }
            fp = up;
        }
    }
    walking = 0;
    depths[slot] = (unsigned char)n;
}

static int find_exe(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            exe_lo = info->dlpi_addr + ph->p_vaddr;
            exe_hi = exe_lo + ph->p_memsz;
        }
    }
    return 1; /* the first object is the executable */
}

struct module {
    uintptr_t lo, hi, bias;
    char name[256];
};
static struct module modules[64];
static int n_modules;

static int list_modules(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int i = 0; i < info->dlpi_phnum && n_modules < 64; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            struct module *m = &modules[n_modules++];
            m->bias = info->dlpi_addr;
            m->lo = info->dlpi_addr + ph->p_vaddr;
            m->hi = m->lo + ph->p_memsz;
            snprintf(m->name, sizeof m->name, "%s", info->dlpi_name[0] ? info->dlpi_name : "exe");
        }
    }
    return 0;
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(find_exe, NULL);
    struct sigaction segv = {0};
    segv.sa_handler = on_segv;
    segv.sa_flags = SA_NODEFER;
    sigaction(SIGSEGV, &segv, NULL);
    struct sigaction prof = {0};
    prof.sa_sigaction = on_prof;
    prof.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &prof, NULL);
    const char *us = getenv("PROFILE_US");
    long period = us ? atol(us) : 250;
    struct itimerval t = {{0, period}, {0, period}};
    setitimer(ITIMER_PROF, &t, NULL);
}

/* One line per sample: `module+offset` per frame, leaf first; a return
 * address is written one byte back, inside the call it returns from. */
__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *f = fopen(path ? path : "samples.txt", "w");
    if (!f) {
        return;
    }
    dl_iterate_phdr(list_modules, NULL);
    int taken = next_slot < MAX_SAMPLES ? next_slot : MAX_SAMPLES;
    for (int s = 0; s < taken; s++) {
        for (int i = 0; i < depths[s]; i++) {
            uintptr_t a = frames[s][i] - (i > 0);
            const char *name = "?";
            uintptr_t off = a;
            for (int m = 0; m < n_modules; m++) {
                if (a >= modules[m].lo && a < modules[m].hi) {
                    name = modules[m].name;
                    off = a - modules[m].bias;
                    break;
                }
            }
            fprintf(f, "%s%s+%lx", i ? " " : "", name, (unsigned long)off);
        }
        fputc('\n', f);
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c"

rm -f "$out/samples.txt"
PROFILE_OUT="$out/samples.txt" PROFILE_US="$period" LD_PRELOAD="$out/sampler.so" \
    "$exe" trial --workload "$workload" --seed 1 --scale 1 --count "$trials" --replay 0 > "$out/trials.txt"

# Symbolize every executable address once: `0x<offset>` then one
# (function, location) pair per inline level, innermost first. LLVM's
# addr2line when there is one: GNU's names the innermost inlined frame at
# some return addresses by the function it is inlined into.
# The script says which one it ran, and warns when it is GNU's.
symbolizer=$(command -v llvm-addr2line || command -v addr2line)
echo "symbolizer: $symbolizer"
case $("$symbolizer" --version 2>&1) in
    *LLVM*) ;;
    *) echo "warning: GNU addr2line: an inlined vote frame may carry the name of the function it is inlined into; install llvm-addr2line for exact inlined frames" ;;
esac
tr ' ' '\n' < "$out/samples.txt" | sed -n 's/^exe+//p' | sort -u \
    | sed 's/^/0x/' | "$symbolizer" -a -f -i -C -e "$exe" > "$out/symbols.txt"

awk -v root="$root_frame" -v top="$top" -v addrs="$addrs" -v workload="$workload" '
    # A frame by its own name: generic arguments and the module path go, a
    # closure keeps the function it is in.
    function short(name,    n, part) {
        gsub(/\$u7b\$/, "{", name); gsub(/\$u7d\$/, "}", name)
        gsub(/\$LT\$/, "<", name); gsub(/\$GT\$/, ">", name)
        gsub(/\.\./, "::", name); gsub(/::_</, "::<", name); gsub(/::_\{/, "::{", name)
        while (gsub(/<[^<>]*>/, "", name)) {}
        n = split(name, part, "::")
        if (n > 1 && length(part[n]) == 17 && part[n] ~ /^h[0-9a-f]+$/) n--
        while (n > 1 && part[n] == "") n--
        if (n > 1 && substr(part[n], 1, 1) == "{" && part[n - 1] != "") return part[n - 1] "::" part[n]
        return part[n]
    }
    BEGIN { stop = short(root) }
    # Pass 1: the symbol table, address -> "f1\tf2..." innermost first.
    FNR == NR {
        if ($0 ~ /^0x[0-9a-f]+$/) { addr = $0; sub(/^0x0*/, "", addr); odd = 1; next }
        if (odd) {
            name = short($0)
            if (addr in sym) sym[addr] = sym[addr] "\t" name
            else sym[addr] = name
        } else {
            line = $0; sub(/ \(discriminator [0-9]+\)$/, "", line); sub(/.*\//, "", line)
            frame = name " (" line ")"
            if (addr in where) where[addr] = where[addr] " <- " frame
            else where[addr] = frame
        }
        odd = !odd
        next
    }
    # Pass 2: one sample a line, leaf first.
    {
        total++
        n = 0
        for (i = 1; i <= NF; i++) {
            split($i, part, "+")
            if (part[1] == "exe") {
                off = part[2]; sub(/^0*/, "", off)
                m = split((off in sym) ? sym[off] : "??", names, "\t")
                for (j = 1; j <= m; j++) chain[++n] = names[j]
            } else {
                lib = part[1]; sub(/.*\//, "", lib)
                chain[++n] = "[" lib "]"
            }
        }
        cut = 0
        for (i = 1; i <= n; i++) if (chain[i] == stop) { cut = i; break }
        if (!cut) next
        under++
        # A library leaf is named with the frame that called it.
        leaf = (substr(chain[1], 1, 1) == "[" && n > 1) ? chain[1] " from " chain[2] : chain[1]
        self[leaf]++
        split($1, part, "+")
        if (part[1] == "exe") { off = part[2]; sub(/^0*/, "", off); hot[off]++ }
        split("", seen)
        for (i = 1; i <= cut; i++) if (!(chain[i] in seen)) { seen[chain[i]] = 1; incl[chain[i]]++ }
    }
    END {
        printf "%s: %d samples, %d under %s\n", workload, total, under, root
        if (!under) exit 1
        sorted = "sort -rn | head -n " top
        printf "\ninclusive %%   function\n"
        fflush()
        for (f in incl) printf "%10.1f   %s\n", 100 * incl[f] / under, f | sorted
        close(sorted)
        printf "\nself %%   function\n"
        fflush()
        for (f in self) printf "%6.1f   %s\n", 100 * self[f] / under, f | sorted
        close(sorted)
        if (addrs > 0) {
            sorted = "sort -rn | head -n " addrs
            printf "\nself %%   address   inlined frames, innermost first (source line)\n"
            fflush()
            for (a in hot) printf "%6.1f   0x%s   %s\n", 100 * hot[a] / under, a, ((a in where) ? where[a] : "??") | sorted
            close(sorted)
        }
    }
' "$out/symbols.txt" "$out/samples.txt"
