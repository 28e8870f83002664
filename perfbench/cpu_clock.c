/* The benchmark's clocks.  Its worlds run on one domain and wait on
   nothing real (the kernels' clock is virtual), so the process's CPU
   time is the host cost of their work.  [Host] runs a fixed probe every
   so often to gauge the host's speed; the probes' own CPU time is kept
   here and left out of [perfbench_now], so no figure includes it.  Both
   are plain C so that no OCaml signal handler can run between reading
   the clock and reading the pause total. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static double paused_s = 0.0;

static double clock_s(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double perfbench_now(value unit)
{
  (void)unit;
  return clock_s(CLOCK_PROCESS_CPUTIME_ID) - paused_s;
}

value perfbench_now_byte(value unit)
{
  return caml_copy_double(perfbench_now(unit));
}

double perfbench_thread_cpu(value unit)
{
  (void)unit;
  return clock_s(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_thread_cpu_byte(value unit)
{
  return caml_copy_double(perfbench_thread_cpu(unit));
}

value perfbench_add_pause(double s)
{
  paused_s += s;
  return Val_unit;
}

value perfbench_add_pause_byte(value s)
{
  return perfbench_add_pause(Double_val(s));
}
