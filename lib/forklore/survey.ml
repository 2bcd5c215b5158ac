type row = {
  api : Api.t;
  packages_using : int;
  call_sites : int;
  package_share : float;
}

let of_packages packages =
  let scans =
    List.map (fun p -> Scanner.scan_string p.Corpus.source) packages
  in
  let total = max 1 (List.length packages) in
  List.map
    (fun api ->
      let using, sites =
        List.fold_left
          (fun (using, sites) scan ->
            let n = Scanner.count scan api in
            ((if n > 0 then using + 1 else using), sites + n))
          (0, 0) scans
      in
      {
        api;
        packages_using = using;
        call_sites = sites;
        package_share = float_of_int using /. float_of_int total;
      })
    Api.all

let validate packages =
  let check p =
    let scan = Scanner.scan_string p.Corpus.source in
    List.find_map
      (fun api ->
        let got = Scanner.count scan api in
        let want = Corpus.truth_count p api in
        if got <> want then
          Some
            (Printf.sprintf "%s: %s expected %d got %d" p.Corpus.name
               (Api.name api) want got)
        else None)
      Api.all
  in
  match List.find_map check packages with
  | Some msg -> Error msg
  | None -> Ok ()
