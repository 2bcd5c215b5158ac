(* Stored digests of one batch's simulated outputs, per workload and
   seed (see Batch.digest). Regenerate with
   main.exe --workload NAME --seed N --digest. *)

let table =
  [
    ("fork-cow", 1, "5c901af0eb07c2256c52693afeb17f0e");
    ("fork-cow", 2, "0db52e226c285443abaf40c822904be2");
    ("fork-cow", 3, "6cccd9d2e2be18347e527e8f17185781");
    ("fork-cow", 4, "fe444e9d76d6bbe30c02e3bc691fe48e");
    ("fork-cow", 5, "a8d5b8e9f34a96da0e282b31c9c2306d");
    ("fork-cow", 6, "8597ab9ab889b390581f1e8a67234f6c");
    ("fork-cow", 7, "bf0012ed5b52e9d7f2cf24b89b2fc1b0");
    ("fork-cow", 8, "d769bdcd8204d4a890ffb403669e4a0a");
    ("fork-cow", 9, "a2474b3f7137270d1b15d771551b4fc2");
    ("fork-cow", 10, "61cd56e60fc167295b9d01fd10996bf2");
    ("fork-cow", 11, "2916a93fabb004979cbcfd595eb6fbf9");
    ("fork-cow", 12, "c68199669cee08942abe3900cc7c0a25");
    ("fork-cow", 13, "7b261f14513241bb8312b8843941aac4");
    ("fork-cow", 14, "7468805888dac6660daf9f8ede44a187");
    ("fork-cow", 15, "2fe1e45c8e1707935c0b2f1bf6c2fd6d");
    ("fork-cow", 16, "4df8e1f7f063af4702d276647b10c959");
    ("fork-cow", 17, "08789c790c12a0088539b35797b64110");
    ("fork-cow", 18, "1f3e8fd53100dee4fc66947496d46dd7");
    ("fork-cow", 19, "04d8000d4355bfbcf7f5e14d76505185");
    ("fork-cow", 20, "eee31249ca08ef9aafa53d61d5433295");
    ("demand-warm", 1, "2ca27e2ec4066c47d07095e6d81981f7");
    ("demand-warm", 2, "5a71fe47d8e34e2922990bf7268a99d9");
    ("demand-warm", 3, "8397c5ceace5e5d04d138c2d1f0cd3be");
    ("demand-warm", 4, "2a18bdc51340ccd5160b00a97f59356b");
    ("demand-warm", 5, "73c8cbe5e0b15ae63f698a3daa012d24");
    ("demand-warm", 6, "21c6ed70af81b00a81a6fe251d4d51cc");
    ("demand-warm", 7, "fc05a26bc7a3cdb0a275c48005130853");
    ("demand-warm", 8, "6a2bdfea698c5329c0fa29716994f7e8");
    ("demand-warm", 9, "f9a281b71eb76ab238663dc1c9930a4e");
    ("demand-warm", 10, "10879197e2d47d53a55a5537ee01aa8f");
    ("demand-warm", 11, "a2e9d7c48232164b91afcc76ba2cc1c4");
    ("demand-warm", 12, "d3be4c1f5beff9c2ca778b582ccb4e30");
    ("demand-warm", 13, "ebd2c22dc20415bfe31ea34238754e06");
    ("demand-warm", 14, "e59569051ebd0cce9e6d34d8a9350e2b");
    ("demand-warm", 15, "84be272ba8a1a22946b7912a5a4a44b0");
    ("demand-warm", 16, "b9f9b02fb60b975fd683d51a48ceb646");
    ("demand-warm", 17, "fa1f261a3a678e31eb11efda50d9e3ee");
    ("demand-warm", 18, "247b0f21b5e8257f76a0e0eecd68ee8b");
    ("demand-warm", 19, "3ead72ebf035847abc2f25b1a3a6c193");
    ("demand-warm", 20, "c22b2ef3dee22b89068b667332c1fbd1");
    ("serve-parked", 1, "41562724184af272933ae960dd492b61");
    ("serve-parked", 2, "41562724184af272933ae960dd492b61");
    ("serve-parked", 3, "41562724184af272933ae960dd492b61");
    ("serve-parked", 4, "41562724184af272933ae960dd492b61");
    ("serve-parked", 5, "df3525b4bc13039d37717811b5c6d9f1");
    ("serve-parked", 6, "41562724184af272933ae960dd492b61");
    ("serve-parked", 7, "41562724184af272933ae960dd492b61");
    ("serve-parked", 8, "41562724184af272933ae960dd492b61");
    ("serve-parked", 9, "41562724184af272933ae960dd492b61");
    ("serve-parked", 10, "41562724184af272933ae960dd492b61");
    ("serve-parked", 11, "41562724184af272933ae960dd492b61");
    ("serve-parked", 12, "41562724184af272933ae960dd492b61");
    ("serve-parked", 13, "41562724184af272933ae960dd492b61");
    ("serve-parked", 14, "8e7931e53d9efd683afd74dfa4fe115f");
    ("serve-parked", 15, "41562724184af272933ae960dd492b61");
    ("serve-parked", 16, "41562724184af272933ae960dd492b61");
    ("serve-parked", 17, "41562724184af272933ae960dd492b61");
    ("serve-parked", 18, "41562724184af272933ae960dd492b61");
    ("serve-parked", 19, "41562724184af272933ae960dd492b61");
    ("serve-parked", 20, "41562724184af272933ae960dd492b61");
  ]

let find ~workload ~seed =
  List.find_map
    (fun (w, s, d) -> if w = workload && s = seed then Some d else None)
    table
