/* sigprof.c — an LD_PRELOAD sampling profiler for boxes without `perf`.
 *
 * Arms ITIMER_PROF (process CPU time) at SIGPROF_HZ (default 250) when the
 * library loads, records the interrupted program counter on every tick, and
 * on exit writes SIGPROF_OUT (default ./sigprof.out): the executable's path,
 * /proc/self/maps, then one hex PC per line. symbolize.py reads that file.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

static unsigned long *pcs;
static size_t cap, n;

static void on_tick(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    size_t i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < cap)
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void arm(long hz) {
    struct itimerval t = {{0, hz ? 1000000 / hz : 0}, {0, hz ? 1000000 / hz : 0}};
    setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((constructor)) static void start(void) {
    const char *hz = getenv("SIGPROF_HZ");
    cap = 1 << 22; /* 4.6 hours at 250 Hz, 32 MB */
    pcs = calloc(cap, sizeof *pcs);
    struct sigaction sa = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    arm(hz ? atol(hz) : 250);
}

__attribute__((destructor)) static void stop(void) {
    arm(0);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    char buf[4096];
    ssize_t len = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (!out || !maps || len < 0)
        return;
    buf[len] = 0;
    fprintf(out, "exe %s\n", buf);
    while (fgets(buf, sizeof buf, maps))
        fprintf(out, "map %s", buf);
    for (size_t i = 0; i < n && i < cap; i++)
        fprintf(out, "%lx\n", pcs[i]);
    fclose(out);
}
