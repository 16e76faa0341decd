#!/usr/bin/env bash
# Where a command spends its CPU: a self-time profile by function and by
# source line. Not a gate; a measuring tool.
#
#   ci/profile.sh [-n TOP] COMMAND [ARGS...]
#
# A small SIGPROF sampler (ITIMER_PROF, one sample per millisecond of
# CPU, or PROFILE_US microseconds) is built with `cc` into target/ and
# preloaded into COMMAND and every process it starts. Each records the
# program counter it was interrupted at; at exit it writes the offsets
# that fall inside its own executable. The process with the most samples
# is reported: `nm` names the function each sample is in, `addr2line`
# its source line. Samples outside the executable (libc, the kernel's
# vDSO) count as `[outside the executable]`.
#
# Lines need line tables, which a plain release build lacks; build the
# binary to profile with them, and run it directly, e.g.
#
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release \
#       --manifest-path benchmark/Cargo.toml --target-dir target/profile
#   ci/profile.sh target/profile/release/threadstudy-benchmark \
#       --workload matrix --seconds 40 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

top=25
if [ "${1:-}" = "-n" ]; then
    top="$2"
    shift 2
fi
[ $# -gt 0 ] || { echo "usage: ci/profile.sh [-n TOP] COMMAND [ARGS...]" >&2; exit 2; }

lib="$root/target/pcsample.so"
if [ ! -f "$lib" ] || [ "$0" -nt "$lib" ]; then
    mkdir -p "$root/target"
    cc -O2 -shared -fPIC -x c -o "$lib" - <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static uintptr_t pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) pcs[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

/* The first object listed is the executable: its load address and end. */
static int exe_range(struct dl_phdr_info *info, size_t size, void *out) {
    uintptr_t *r = out, end = 0;
    (void)size;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD &&
            info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz > end)
            end = info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
    r[0] = info->dlpi_addr, r[1] = end;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof, sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *us = getenv("PROFILE_US");
    long period = us ? atol(us) : 1000;
    struct itimerval it = {{period / 1000000, period % 1000000}, {period / 1000000, period % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

/* Writes `<dir>/<pid>`: the executable's path, then one offset a line. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], exe[4096];
    const char *dir = getenv("PROFILE_DIR");
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!dir || len < 0) return;
    exe[len] = 0;
    snprintf(path, sizeof path, "%s/%d", dir, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    uintptr_t r[2] = {0, 0};
    dl_iterate_phdr(exe_range, r);
    fprintf(f, "%s\n", exe);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) {
        uintptr_t off = pcs[i] - r[0];
        fprintf(f, "%ld\n", pcs[i] >= r[0] && off < r[1] ? (long)off : -1L);
    }
    fclose(f);
}
EOF
fi

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
status=0
PROFILE_DIR="$dir" LD_PRELOAD="$lib${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

samples="$(wc -l "$dir"/* | sort -n | grep -v ' total$' | tail -1 | awk '{print $2}')"
[ -n "$samples" ] || { echo "no samples: did COMMAND run?" >&2; exit 1; }
exe="$(head -1 "$samples")"
total=$(($(wc -l <"$samples") - 1))
echo "== $total samples of $exe (COMMAND exited $status)"

# Offset counts, ascending; the executable's symbols, ascending; one
# merge walk gives each offset the last symbol at or below it.
tail -n +2 "$samples" | sort -n | uniq -c | awk '{print $2, $1}' >"$dir/offsets"
nm -C -n -t d --defined-only "$exe" | awk '$2 ~ /^[tTwW]$/ {
    a = $1; $1 = ""; $2 = ""; sub(/^  /, ""); sub(/::h[0-9a-f]{16}$/, ""); print a "\t" $0
}' >"$dir/symbols"

awk -v total="$total" -v top="$top" -F'\t' '
    NR == FNR { addr[NR] = $1 + 0; name[NR] = $2; n = NR; next }
    {
        split($0, f, " "); off = f[1] + 0; cnt = f[2] + 0
        if (off < 0) { self["[outside the executable]"] += cnt; next }
        while (i < n && addr[i + 1] <= off) i++
        self[i ? name[i] : "[before the first symbol]"] += cnt
    }
    END {
        print "-- self time by function"
        for (s in self) printf "%6.2f%%  %s\n", 100 * self[s] / total, s | "sort -rn | head -" top
    }' "$dir/symbols" "$dir/offsets"

echo "-- self time by source line"
awk '$1 >= 0 { printf "%x %d\n", $1, $2 }' "$dir/offsets" >"$dir/hex"
cut -d' ' -f1 "$dir/hex" | addr2line -e "$exe" >"$dir/lines"
paste -d' ' "$dir/hex" "$dir/lines" | awk -v total="$total" -v top="$top" '
    {
        sub(/ \(discriminator [0-9]+\)$/, "")
        l = $3
        if (match(l, /(crates|benchmark)\//)) l = substr(l, RSTART)
        at[l] += $2
    }
    END { for (l in at) printf "%6.2f%%  %s\n", 100 * at[l] / total, l | "sort -rn | head -" top }'
