(* After fork() in a multithreaded process, the child may only call
   the async-signal-safe functions of POSIX.1-2017 (XSH §2.4.3) until
   it reaches exec — the core of the paper's §2.1 "fork doesn't
   compose" claim. These are common libc/pthread functions that are
   definitely NOT on that list (they allocate, take internal locks, or
   touch stdio state). A call site in the fork→exec window is only
   reported when its callee is on this list or summarised as reaching
   it: unknown external functions stay un-flagged, which is what keeps
   the checker's precision honest on real trees. *)
let unsafe_list =
  [
    (* allocator *)
    "malloc"; "calloc"; "realloc"; "free"; "posix_memalign";
    "aligned_alloc"; "strdup"; "strndup"; "asprintf"; "vasprintf";
    (* stdio: buffered state + internal locks *)
    "printf"; "fprintf"; "sprintf"; "snprintf"; "vprintf"; "vfprintf";
    "vsnprintf"; "puts"; "fputs"; "putchar"; "fputc"; "putc";
    "fwrite"; "fread"; "fgets"; "fgetc"; "getchar"; "gets"; "scanf";
    "fscanf"; "sscanf"; "fopen"; "fclose"; "fflush"; "freopen";
    "fseek"; "ftell"; "rewind"; "setvbuf"; "setbuf"; "tmpfile";
    "perror";
    (* process teardown that runs atexit handlers / flushes stdio *)
    "exit"; "atexit"; "on_exit";
    (* pthread: lock state is orphaned in the child *)
    "pthread_mutex_lock"; "pthread_mutex_unlock";
    "pthread_mutex_trylock"; "pthread_cond_wait";
    "pthread_cond_signal"; "pthread_cond_broadcast"; "pthread_create";
    "pthread_join"; "pthread_once"; "pthread_rwlock_rdlock";
    "pthread_rwlock_wrlock"; "pthread_rwlock_unlock";
    (* C11 threads *)
    "mtx_lock"; "mtx_unlock"; "thrd_create"; "thrd_join"; "cnd_wait";
    "cnd_signal";
    (* misc allocating / locking libc *)
    "dlopen"; "dlsym"; "dlclose"; "syslog"; "getenv"; "setenv";
    "putenv"; "unsetenv"; "localtime"; "gmtime"; "ctime"; "asctime";
    "strftime"; "mktime"; "rand"; "srand"; "random"; "srandom";
    "drand48"; "strtok"; "gethostbyname"; "getaddrinfo"; "opendir";
    "readdir"; "closedir"; "strerror"; "system"; "popen"; "pclose";
    "regcomp"; "regexec"; "qsort"; "bsearch";
  ]

let unsafe_tbl = Hashtbl.create 128
let () = List.iter (fun f -> Hashtbl.replace unsafe_tbl f ()) unsafe_list

let is_known_unsafe name = Hashtbl.mem unsafe_tbl name
