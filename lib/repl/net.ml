exception Unknown_host of string

let inet_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let found =
        (* "" would be getaddrinfo's "no node": the loopback address *)
        if host = "" then []
        else
          Unix.getaddrinfo host ""
            [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      in
      match found with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ -> raise (Unknown_host host))
