/* Count the user instructions a program executes between two getppid
   system calls, by single-stepping it with ptrace (x86-64 Linux).

     stepper OUT PROG ARGS...

   PROG runs as this process's traced child. Up to its first getppid
   call it runs freely (stopping only at system calls); from the return
   of that call to the start of its next getppid call every instruction
   is single-stepped and its address counted. The child then runs on to
   its exit untraced, and this program exits with its status. OUT gets
   the load address of PROG's image ("base 0x..."), the instruction
   count ("total N") and one "address count" line per instruction
   address, addresses as they were at run time. Nothing but the child
   is traced. */

#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

/* instruction addresses, open addressing; [sys] marks a syscall
   instruction, read from the child's text once per address */
struct slot {
  uint64_t addr;
  uint64_t count;
  int sys;
};

static struct slot *table;
static size_t cap = 1 << 16, used;

static void die(const char *what) {
  perror(what);
  exit(125);
}

static size_t hash(uint64_t a) { return (size_t)((a * 0x9E3779B97F4A7C15ull) >> 20); }

static struct slot *lookup(uint64_t a);

static void grow(void) {
  struct slot *old = table;
  size_t n = cap;
  cap *= 2;
  table = calloc(cap, sizeof *table);
  if (!table) die("calloc");
  used = 0;
  for (size_t k = 0; k < n; k++)
    if (old[k].addr) {
      struct slot *s = lookup(old[k].addr);
      s->count = old[k].count;
      s->sys = old[k].sys;
    }
  free(old);
}

/* the slot of [a], made (count 0, [sys] -1) on first sight */
static struct slot *lookup(uint64_t a) {
  if (2 * (used + 1) > cap) grow();
  size_t k = hash(a) & (cap - 1);
  while (table[k].addr && table[k].addr != a) k = (k + 1) & (cap - 1);
  if (!table[k].addr) {
    table[k].addr = a;
    table[k].sys = -1;
    used++;
  }
  return &table[k];
}

/* the start address of the child's first mapping of its executable */
static uint64_t image_base(pid_t pid) {
  char path[64], exe[4096], line[4608];
  snprintf(path, sizeof path, "/proc/%d/exe", (int)pid);
  ssize_t n = readlink(path, exe, sizeof exe - 1);
  if (n < 0) return 0;
  exe[n] = 0;
  snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
  FILE *f = fopen(path, "r");
  if (!f) return 0;
  uint64_t base = 0;
  while (fgets(line, sizeof line, f)) {
    unsigned long long lo;
    char name[4096] = "";
    if (sscanf(line, "%llx-%*x %*s %*s %*s %*s %4095s", &lo, name) >= 1 &&
        strcmp(name, exe) == 0) {
      base = lo;
      break;
    }
  }
  fclose(f);
  return base;
}

static int wait_stop(pid_t pid) {
  int status;
  if (waitpid(pid, &status, 0) < 0) die("waitpid");
  if (WIFEXITED(status) || WIFSIGNALED(status)) {
    fprintf(stderr, "stepper: child ended before the window closed\n");
    exit(125);
  }
  return status;
}

int main(int argc, char **argv) {
  if (argc < 3) {
    fprintf(stderr, "usage: stepper OUT PROG ARGS...\n");
    return 2;
  }
  pid_t pid = fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    if (ptrace(PTRACE_TRACEME, 0, NULL, NULL) < 0) die("PTRACE_TRACEME");
    execvp(argv[2], argv + 2);
    die("execvp");
  }
  wait_stop(pid); /* the exec */
  if (ptrace(PTRACE_SETOPTIONS, pid, NULL, (void *)PTRACE_O_TRACESYSGOOD) < 0)
    die("PTRACE_SETOPTIONS");
  /* to the first getppid's exit: stops alternate entry, exit */
  int entering = 1, marked = 0;
  struct user_regs_struct regs;
  for (;;) {
    if (ptrace(PTRACE_SYSCALL, pid, NULL, NULL) < 0) die("PTRACE_SYSCALL");
    int status = wait_stop(pid);
    if (!(WIFSTOPPED(status) && WSTOPSIG(status) == (SIGTRAP | 0x80))) continue;
    if (ptrace(PTRACE_GETREGS, pid, NULL, &regs) < 0) die("PTRACE_GETREGS");
    if (!entering && marked) break;
    if (entering && regs.orig_rax == SYS_getppid) marked = 1;
    entering = !entering;
  }
  uint64_t base = image_base(pid);
  table = calloc(cap, sizeof *table);
  if (!table) die("calloc");
  uint64_t total = 0;
  for (;;) {
    if (ptrace(PTRACE_GETREGS, pid, NULL, &regs) < 0) die("PTRACE_GETREGS");
    struct slot *s = lookup(regs.rip);
    if (s->sys < 0) {
      errno = 0;
      long word = ptrace(PTRACE_PEEKTEXT, pid, (void *)regs.rip, NULL);
      if (errno) die("PTRACE_PEEKTEXT");
      s->sys = (word & 0xFFFF) == 0x050F; /* syscall */
    }
    if (s->sys && regs.rax == SYS_getppid) break;
    s->count++;
    total++;
    if (ptrace(PTRACE_SINGLESTEP, pid, NULL, NULL) < 0) die("PTRACE_SINGLESTEP");
    int status = wait_stop(pid);
    if (!(WIFSTOPPED(status) && WSTOPSIG(status) == SIGTRAP)) {
      fprintf(stderr, "stepper: child stopped by signal %d\n", WSTOPSIG(status));
      return 125;
    }
  }
  if (ptrace(PTRACE_DETACH, pid, NULL, NULL) < 0) die("PTRACE_DETACH");
  FILE *out = fopen(argv[1], "w");
  if (!out) die(argv[1]);
  fprintf(out, "base 0x%llx\ntotal %llu\n", (unsigned long long)base,
          (unsigned long long)total);
  for (size_t k = 0; k < cap; k++)
    if (table[k].addr && table[k].count)
      fprintf(out, "0x%llx %llu\n", (unsigned long long)table[k].addr,
              (unsigned long long)table[k].count);
  fclose(out);
  int status;
  if (waitpid(pid, &status, 0) < 0) die("waitpid");
  return WIFEXITED(status) ? WEXITSTATUS(status) : 125;
}
