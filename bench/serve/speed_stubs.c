/* The calling thread's CPU time, for timing the speed reference
   (speed.ml). Unlike wall time it leaves out the time the thread
   waited for the CPU while other threads or processes ran. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double bench_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_thread_cpu_s_byte(value unit)
{
  return caml_copy_double(bench_thread_cpu_s(unit));
}
