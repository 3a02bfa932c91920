// peak_rss: runs a program and reports its peak resident set size and the
// CPU time it used.
//
//   peak_rss OUT_FILE PROGRAM [ARGS...]
//
// Writes "ru_maxrss_kib user_seconds system_seconds" of the child to
// OUT_FILE and exits with the child's exit status (128 + signal when it was
// killed). The benchmark starts
// programs through this small process because Linux carries the peak RSS
// of the address space a process replaces at exec into its ru_maxrss: a
// program forked straight from the benchmark's interpreter would report
// the interpreter's size whenever its own peak is smaller.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: peak_rss OUT_FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 2;
  }
  if (child == 0) {
    execv(argv[2], argv + 2);
    std::perror(argv[2]);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("wait4");
      return 2;
    }
  }
  if (FILE* out = std::fopen(argv[1], "w")) {
    std::fprintf(out, "%ld %ld.%06ld %ld.%06ld\n", usage.ru_maxrss,
                 static_cast<long>(usage.ru_utime.tv_sec), static_cast<long>(usage.ru_utime.tv_usec),
                 static_cast<long>(usage.ru_stime.tv_sec), static_cast<long>(usage.ru_stime.tv_usec));
    std::fclose(out);
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}
