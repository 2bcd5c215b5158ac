type package = {
  name : string;
  source : string;
  truth : (Api.t * int) list;
}

let truth_count p api =
  match List.assoc_opt api p.truth with Some n -> n | None -> 0

type archetype =
  | Shell_out
  | Daemon
  | Spawner
  | Low_level
  | Pure

let archetype_weights =
  [ (Shell_out, 30); (Daemon, 40); (Spawner, 4); (Low_level, 6); (Pure, 20) ]

let pick_weighted rng weights =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let roll = Prng.Splitmix.int rng ~bound:total in
  let rec go acc = function
    | [] -> invalid_arg "pick_weighted: empty"
    | (x, w) :: rest -> if roll < acc + w then x else go (acc + w) rest
  in
  go 0 weights

(* Which APIs an archetype calls, with min/max call sites each. *)
let profile = function
  | Shell_out -> [ (Api.System, 1, 6); (Api.Popen, 0, 4) ]
  | Daemon -> [ (Api.Fork, 1, 8); (Api.Exec, 1, 5); (Api.System, 0, 2) ]
  | Spawner -> [ (Api.Posix_spawn, 1, 4); (Api.Exec, 0, 1) ]
  | Low_level -> [ (Api.Vfork, 0, 2); (Api.Clone, 1, 3); (Api.Exec, 1, 3) ]
  | Pure -> []

let call_snippet rng api =
  let id =
    let ids = Api.identifiers api in
    List.nth ids (Prng.Splitmix.int rng ~bound:(List.length ids))
  in
  match api with
  | Api.Fork | Api.Vfork -> Printf.sprintf "  pid = %s();\n" id
  | Api.Clone ->
    Printf.sprintf "  pid = %s(child_fn, stack_top, flags, arg);\n" id
  | Api.Posix_spawn ->
    Printf.sprintf "  rc = %s(&pid, path, NULL, NULL, argv, envp);\n" id
  | Api.System -> Printf.sprintf "  rc = %s(command);\n" id
  | Api.Popen -> Printf.sprintf "  fp = %s(command, \"r\");\n" id
  | Api.Exec -> Printf.sprintf "  %s(path, argv, envp);\n" id

(* text that must NOT be counted *)
let distractors =
  [|
    "/* fork() considered harmful -- see HotOS'19 */\n";
    "// TODO: replace fork() with posix_spawn() someday\n";
    "  log(\"calling fork() now\");\n";
    "  my_fork_helper(ctx);\n";
    "  forkful_of_noodles(bowl);\n";
    "  int forked = 0;\n";
    "  char c = 'f';\n";
    "  refork_queue(q); /* system(\"reboot\") in a string: system(\"x\") */\n";
    "#include <unistd.h>\n";
    "  spawn_counter++;\n";
    "  pid_t fork(void); /* local prototype, not a call */\n";
  |]

let filler_functions =
  [|
    (fun i ->
      Printf.sprintf "static int helper_%d(int x) {\n  return x * 2 + 1;\n}\n\n" i);
    (fun i ->
      Printf.sprintf
        "static void log_%d(const char *msg) {\n  write(2, msg, strlen(msg));\n}\n\n"
        i);
    (fun i ->
      Printf.sprintf
        "static int parse_%d(const char *s, int *out) {\n  *out = atoi(s);\n  return *out != 0;\n}\n\n"
        i);
  |]

let generate_package rng index =
  let arch = pick_weighted rng archetype_weights in
  let truth = Hashtbl.create 4 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "#include <stdio.h>\n#include <unistd.h>\n\n";
  (* some filler + distractor preamble *)
  for k = 0 to 1 + Prng.Splitmix.int rng ~bound:3 do
    let pick = Prng.Splitmix.int rng ~bound:(Array.length filler_functions) in
    Buffer.add_string buf (filler_functions.(pick) ((10 * index) + k))
  done;
  Buffer.add_string buf "int main(int argc, char **argv) {\n";
  Buffer.add_string buf "  int rc = 0; int pid = 0; void *fp = NULL;\n";
  List.iter
    (fun (api, lo, hi) ->
      let calls = lo + Prng.Splitmix.int rng ~bound:(hi - lo + 1) in
      for _ = 1 to calls do
        Buffer.add_string buf
          distractors.(Prng.Splitmix.int rng ~bound:(Array.length distractors));
        Buffer.add_string buf (call_snippet rng api)
      done;
      if calls > 0 then
        Hashtbl.replace truth api
          (calls + Option.value ~default:0 (Hashtbl.find_opt truth api)))
    (profile arch);
  Buffer.add_string buf
    distractors.(Prng.Splitmix.int rng ~bound:(Array.length distractors));
  Buffer.add_string buf "  return rc + pid + (fp != NULL);\n}\n";
  {
    name = Printf.sprintf "pkg-%04d" index;
    source = Buffer.contents buf;
    truth =
      List.filter_map
        (fun api ->
          Option.map (fun n -> (api, n)) (Hashtbl.find_opt truth api))
        Api.all;
  }

let generate ?(packages = 200) ~seed () =
  if packages < 0 then invalid_arg "Corpus.generate: negative count";
  let rng = Prng.Splitmix.create ~seed in
  List.init packages (fun i -> generate_package rng i)

(* ------------------------------------------------------------------ *)
(* Hazard fixtures for forklint: hand-written programs exhibiting the
   paper's fork hazards, each labelled with the exact findings
   (rule id, line, col) the rule engine must produce, in
   Diagnostic.compare order. Columns are 1-based. *)

type hazard = {
  hz_name : string;
  hz_source : string;
  hz_expected : (string * int * int) list;
}

let src lines = String.concat "\n" lines ^ "\n"

let threaded_noexec =
  {
    hz_name = "threaded_noexec.c";
    hz_source =
      src
        [
          "#include <pthread.h>";
          "#include <stdio.h>";
          "#include <fcntl.h>";
          "";
          "static void *worker(void *arg) {";
          "    return arg;";
          "}";
          "";
          "int main(void) {";
          "    pthread_t th;";
          "    pthread_create(&th, NULL, worker, NULL);";
          "    printf(\"hello from the parent\\n\");";
          "    int fd = open(\"/tmp/scratch\", O_RDWR);";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        handle_request(fd);";
          "    }";
          "    return 0;";
          "}";
        ];
    hz_expected =
      [
        ("fd-no-cloexec", 13, 14);
        ("fork-in-threads", 14, 17);
        ("fork-no-exec", 14, 17);
        ("stdio-before-fork", 14, 17);
        (* the child falls through `if (pid == 0)` to main's return *)
        ("child-path-return", 18, 5);
      ];
  }

let clean_spawn =
  {
    hz_name = "clean_spawn.c";
    hz_source =
      src
        [
          "#include <spawn.h>";
          "";
          "int run(char *const argv[], char *const envp[]) {";
          "    pid_t pid;";
          "    int rc = posix_spawn(&pid, argv[0], NULL, NULL, argv, envp);";
          "    return rc == 0 ? (int)pid : -1;";
          "}";
        ];
    hz_expected = [];
  }

let vfork_bad =
  {
    hz_name = "vfork_bad.c";
    hz_source =
      src
        [
          "#include <unistd.h>";
          "#include <stdio.h>";
          "";
          "int main(int argc, char **argv) {";
          "    pid_t pid = vfork();";
          "    if (pid == 0) {";
          "        printf(\"child %d\\n\", argc);";
          "        execv(argv[1], argv + 1);";
          "        _exit(127);";
          "    }";
          "    return 0;";
          "}";
        ];
    hz_expected = [ ("vfork-misuse", 7, 9) ];
  }

let vfork_no_exec =
  {
    hz_name = "vfork_no_exec.c";
    hz_source =
      src
        [
          "#include <unistd.h>";
          "";
          "int main(void) {";
          "    if (vfork() == 0) {";
          "        do_work();";
          "    }";
          "    return 0;";
          "}";
        ];
    hz_expected =
      [
        (* no child path escapes; the do_work call and the return are
           both inside the vfork child window *)
        ("vfork-misuse", 4, 9);
        ("vfork-misuse", 5, 9);
        ("vfork-misuse", 7, 5);
      ];
  }

let stdio_fork =
  {
    hz_name = "stdio_fork.c";
    hz_source =
      src
        [
          "#include <stdio.h>";
          "#include <unistd.h>";
          "";
          "int main(void) {";
          "    printf(\"starting worker\\n\");";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        execlp(\"worker\", \"worker\", (char *)0);";
          "        _exit(127);";
          "    }";
          "    return pid > 0 ? 0 : 1;";
          "}";
        ];
    hz_expected = [ ("stdio-before-fork", 6, 17) ];
  }

let child_malloc =
  {
    hz_name = "child_malloc.c";
    hz_source =
      src
        [
          "#include <stdlib.h>";
          "#include <unistd.h>";
          "";
          "int main(int argc, char **argv) {";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        char *buf = malloc(4096);";
          "        build_argv(buf, argc);";
          "        execv(argv[1], argv + 1);";
          "        _exit(127);";
          "    }";
          "    return 0;";
          "}";
        ];
    hz_expected = [ ("unsafe-child-work", 7, 21) ];
  }

let cloexec_leak =
  {
    hz_name = "cloexec_leak.c";
    hz_source =
      src
        [
          "#include <fcntl.h>";
          "#include <unistd.h>";
          "";
          "int main(void) {";
          "    int log_fd = open(\"/var/log/app.log\", O_WRONLY | O_APPEND);";
          "    int safe_fd = open(\"/etc/config\", O_RDONLY | O_CLOEXEC);";
          "    if (fork() == 0) {";
          "        execl(\"/bin/worker\", \"worker\", (char *)0);";
          "        _exit(127);";
          "    }";
          "    return log_fd + safe_fd;";
          "}";
        ];
    hz_expected = [ ("fd-no-cloexec", 5, 18) ];
  }

(* --- precision fixtures: each pins a false-positive class of a
   path-insensitive token scan that the path-sensitive rules must NOT
   report, or a hazard only the CFG can see. *)

(* Parent-path-only work: malloc/printf/free run only when pid > 0.
   A token window cannot tell the branches apart; the dataflow knows
   the path's role excludes the child. *)
let parent_path_work =
  {
    hz_name = "parent_path_work.c";
    hz_source =
      src
        [
          "#include <stdio.h>";
          "#include <stdlib.h>";
          "#include <unistd.h>";
          "#include <sys/wait.h>";
          "";
          "int main(int argc, char **argv) {";
          "    pid_t pid = fork();";
          "    if (pid > 0) {";
          "        char *line = malloc(256);";
          "        printf(\"parent waiting for %d\\n\", pid);";
          "        free(line);";
          "        waitpid(pid, NULL, 0);";
          "    } else if (pid == 0) {";
          "        execv(argv[1], argv + 1);";
          "        _exit(127);";
          "    }";
          "    return 0;";
          "}";
        ];
    hz_expected = [];
  }

(* Flush via a helper: the one-level summary knows flush_all reaches
   fflush, so the dirty-stdio fact dies before the fork. *)
let helper_flush =
  {
    hz_name = "helper_flush.c";
    hz_source =
      src
        [
          "#include <stdio.h>";
          "#include <unistd.h>";
          "";
          "static void flush_all(void) {";
          "    fflush(NULL);";
          "}";
          "";
          "int main(void) {";
          "    printf(\"starting\\n\");";
          "    flush_all();";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        execlp(\"worker\", \"worker\", (char *)0);";
          "        _exit(127);";
          "    }";
          "    return pid < 0 ? 1 : 0;";
          "}";
        ];
    hz_expected = [];
  }

(* The stdio write lives in a different function that main never calls
   before forking. A whole-file token scan blames the fork anyway;
   per-function CFGs keep the facts apart. *)
let cross_function =
  {
    hz_name = "cross_function.c";
    hz_source =
      src
        [
          "#include <stdio.h>";
          "#include <unistd.h>";
          "";
          "static void logger(const char *msg) {";
          "    printf(\"%s\\n\", msg);";
          "}";
          "";
          "int main(int argc, char **argv) {";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        execv(argv[1], argv + 1);";
          "        _exit(127);";
          "    }";
          "    logger(\"forked\");";
          "    return 0;";
          "}";
        ];
    hz_expected = [];
  }

(* A mutex held across the fork: the lock dataflow sees it. *)
let lock_across_fork =
  {
    hz_name = "lock_across_fork.c";
    hz_source =
      src
        [
          "#include <pthread.h>";
          "#include <unistd.h>";
          "";
          "static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;";
          "";
          "int main(int argc, char **argv) {";
          "    pthread_mutex_lock(&mu);";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        execv(argv[1], argv + 1);";
          "        _exit(127);";
          "    }";
          "    pthread_mutex_unlock(&mu);";
          "    return 0;";
          "}";
        ];
    hz_expected = [ ("lock-across-fork", 8, 17) ];
  }

(* The child execs only when access() succeeds; on the failure path it
   falls through to `return -1` and keeps running the caller's code. *)
let child_fallthrough =
  {
    hz_name = "child_fallthrough.c";
    hz_source =
      src
        [
          "#include <unistd.h>";
          "";
          "int spawn_helper(const char *path) {";
          "    pid_t pid = fork();";
          "    if (pid == 0) {";
          "        if (access(path, X_OK) == 0) {";
          "            execl(path, path, (char *)0);";
          "        }";
          "        return -1;";
          "    }";
          "    return (int)pid;";
          "}";
        ];
    hz_expected = [ ("child-path-return", 9, 9) ];
  }

let hazards =
  [
    threaded_noexec;
    clean_spawn;
    vfork_bad;
    vfork_no_exec;
    stdio_fork;
    child_malloc;
    cloexec_leak;
    parent_path_work;
    helper_flush;
    cross_function;
    lock_across_fork;
    child_fallthrough;
  ]
